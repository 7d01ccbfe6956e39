//! The evaluation catalogue: every figure, table, `BENCH_*.json`
//! snapshot and trace of the evaluation has exactly one row in
//! [`CATALOGUE`] — its one run, the hard guarantees it asserts, the
//! artifacts it emits, the summary lines it prints. `run_all [id…]` is
//! the only way to run them; what a bare `run_all` writes to `results/`
//! and the repo root is what is committed there, and
//! `make results-identity` gates the two against each other byte for byte.

#![warn(missing_docs)]

use forkroad_core::experiments::service::ServiceConfig;
use forkroad_core::experiments::spawn_fastpath::Mode;
use forkroad_core::experiments::{
    api_matrix, aslr, breakdown, cow, fig1, forkbomb, odf_storm, overcommit, pressure, robustness,
    scaling, service, smp, smp_faults, spawn_actions, spawn_fastpath, stdio, threads, vma_sweep,
};
use forkroad_core::kit::{machine_for, world, world_seeded, CreationPath};
use fpr_mem::{ForkMode, CYCLES_PER_US};
use fpr_trace::json::{self, Value};
use fpr_trace::{chrome, report, sink};
use fpr_trace::{FigureData, ProcessShape, Series, TableData, TraceEvent};
use std::fs;
use std::path::PathBuf;

/// Where artifacts are written: `FORKROAD_RESULTS` if set, else the
/// directory (relative to the working directory) they are committed in.
fn out_dir(committed: &str) -> PathBuf {
    let dir = std::env::var("FORKROAD_RESULTS").unwrap_or_else(|_| committed.to_string());
    let p = PathBuf::from(dir);
    let _ = fs::create_dir_all(&p);
    p
}

fn int<T: TryInto<u64>>(n: T) -> Value {
    Value::Num(n.try_into().unwrap_or_else(|_| panic!("a count fits u64")) as f64)
}

fn ints<T: TryInto<u64>>(ns: impl IntoIterator<Item = T>) -> Value {
    Value::Arr(ns.into_iter().map(int).collect())
}

/// A rate or ratio, kept to the two decimals it is written with.
fn real(x: f64) -> Value {
    Value::Num((x * 100.0).round() / 100.0)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn rec<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// Everything below a snapshot's top level, on one line; counts print as
/// integers, rates to two decimals.
fn inline(v: &Value) -> String {
    match v {
        Value::Num(n) if n.fract() == 0.0 => format!("{n:.0}"),
        Value::Num(n) => format!("{n:.2}"),
        Value::Arr(items) => {
            let items: Vec<String> = items.iter().map(inline).collect();
            format!("[{}]", items.join(", "))
        }
        Value::Obj(members) => {
            let members: Vec<String> = members.iter().map(|(k, v)| member(k, v)).collect();
            format!("{{{}}}", members.join(", "))
        }
        scalar => scalar.pretty(),
    }
}

fn member(key: &str, v: &Value) -> String {
    format!("{}: {}", text(key).pretty(), inline(v))
}

/// The one layout every `BENCH_*.json` obeys: top-level members one per
/// line at two spaces, an array of objects one object per line at four,
/// everything nested inline.
fn snapshot_json(record: &Value) -> String {
    let Value::Obj(members) = record else {
        panic!("a snapshot is an object")
    };
    let lines: Vec<String> = members
        .iter()
        .map(|(key, v)| match v {
            Value::Arr(rows) if matches!(rows.first(), Some(Value::Obj(_))) => {
                let rows: Vec<String> = rows.iter().map(|r| format!("    {}", inline(r))).collect();
                format!("  {}: [\n{}\n  ]", text(key).pretty(), rows.join(",\n"))
            }
            v => format!("  {}", member(key, v)),
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// One emitted result.
#[derive(Debug)]
pub enum Artifact {
    /// Series over a shared x axis.
    Figure(FigureData),
    /// Column headers and string rows.
    Table(TableData),
    /// A `BENCH_*.json` snapshot — the deterministic counts behind an
    /// experiment's hard guarantees — committed at the repo root.
    Snapshot(&'static str, Value),
    /// A recorded span tree, exported as Chrome trace-event JSON.
    Trace(&'static str, Vec<TraceEvent>),
}

impl From<FigureData> for Artifact {
    fn from(f: FigureData) -> Artifact {
        Artifact::Figure(f)
    }
}

impl From<TableData> for Artifact {
    fn from(t: TableData) -> Artifact {
        Artifact::Table(t)
    }
}

/// The snapshot `id` with `members` after its `"id"`.
fn snapshot<const N: usize>(id: &'static str, members: [(&str, Value); N]) -> Artifact {
    let mut all = vec![("id".to_string(), text(id))];
    all.extend(members.map(|(k, v)| (k.to_string(), v)));
    Artifact::Snapshot(id, Value::Obj(all))
}

impl Artifact {
    /// The id the artifact is saved under (`<id>.json`).
    pub(crate) fn id(&self) -> &str {
        match self {
            Artifact::Figure(f) => &f.id,
            Artifact::Table(t) => &t.id,
            Artifact::Snapshot(id, _) | Artifact::Trace(id, _) => id,
        }
    }

    fn render(&self) -> String {
        match self {
            Artifact::Figure(f) => f.render(),
            Artifact::Table(t) => t.render(),
            Artifact::Snapshot(_, record) => snapshot_json(record),
            Artifact::Trace(_, events) => report::render(events, CYCLES_PER_US),
        }
    }

    fn to_json(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_value().pretty(),
            Artifact::Table(t) => t.to_value().pretty(),
            Artifact::Snapshot(_, record) => snapshot_json(record),
            Artifact::Trace(_, events) => chrome::to_chrome_string(events, CYCLES_PER_US),
        }
    }

    /// Checks written text: a figure, table or snapshot must parse back
    /// to the JSON value it was printed from, a trace must be valid JSON.
    fn check(&self, text: &str) -> Result<(), String> {
        let parsed = json::parse(text).map_err(|e| e.to_string())?;
        let same = match self {
            Artifact::Figure(f) => parsed == f.to_value(),
            Artifact::Table(t) => parsed == t.to_value(),
            Artifact::Snapshot(_, record) => parsed == *record,
            Artifact::Trace(..) => true,
        };
        if same {
            Ok(())
        } else {
            Err("JSON round-trip changed the artifact".to_string())
        }
    }
}

/// Prints an artifact, persists its JSON — snapshots at the repo root,
/// everything else under `results/`, or all of it where
/// `FORKROAD_RESULTS` points — and proves the written file reads back, so
/// a malformed emitter fails here, not in a later plotting script.
///
/// # Panics
///
/// Panics if the file cannot be written or does not read back.
pub(crate) fn emit(artifact: &Artifact) {
    let id = artifact.id();
    println!("{}", artifact.render());
    let committed = match artifact {
        Artifact::Snapshot(..) => ".",
        _ => "results",
    };
    let path = out_dir(committed).join(format!("{id}.json"));
    fs::write(&path, artifact.to_json())
        .unwrap_or_else(|e| panic!("{id}: could not write {}: {e}", path.display()));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("{id}: emitted file unreadable: {e}"));
    artifact
        .check(&text)
        .unwrap_or_else(|e| panic!("{id}: bad JSON: {e}"));
    println!("[saved {}]", path.display());
}

/// What one experiment produced: artifacts to emit, then lines to print.
#[derive(Debug, Default)]
pub struct Output {
    /// What the run produced, in emission order.
    pub artifacts: Vec<Artifact>,
    /// Shape checks and detail lines printed after the artifacts.
    pub summary: Vec<String>,
}

impl Output {
    fn of(artifact: impl Into<Artifact>) -> Output {
        Output::default().and(artifact)
    }

    fn and(mut self, artifact: impl Into<Artifact>) -> Output {
        self.artifacts.push(artifact.into());
        self
    }

    fn line(mut self, line: String) -> Output {
        self.summary.push(line);
        self
    }
}

/// One row of the catalogue.
pub struct Experiment {
    /// What `run_all <id>` selects.
    pub id: &'static str,
    /// Ids of the artifacts `run` emits, in order. A run emits exactly
    /// these — or none, for a host-kernel measurement on a host that is
    /// not Linux.
    pub emits: &'static [&'static str],
    /// The experiment's one run, asserting its hard guarantees.
    pub run: fn() -> Output,
}

impl Experiment {
    const fn new(id: &'static str, emits: &'static [&'static str], run: fn() -> Output) -> Self {
        Experiment { id, emits, run }
    }

    /// Runs the experiment, emits its artifacts and prints its summary.
    ///
    /// # Panics
    ///
    /// Panics if the run emits anything but what the row declares.
    pub fn run_and_emit(&self) {
        let out = (self.run)();
        let ids: Vec<&str> = out.artifacts.iter().map(Artifact::id).collect();
        assert!(
            ids.is_empty() || ids == self.emits,
            "{}: emitted {ids:?}, the catalogue declares {:?}",
            self.id,
            self.emits
        );
        out.artifacts.iter().for_each(emit);
        for line in &out.summary {
            println!("{line}");
        }
        println!();
    }
}

/// Every experiment of the evaluation, in EXPERIMENTS.md order.
pub static CATALOGUE: &[Experiment] = &[
    Experiment::new("fig1", &["fig1"], e1_fig1),
    Experiment::new("fig1_native", &["fig1_native"], e1_fig1_native),
    Experiment::new("tab_fork_breakdown", &["tab_fork_breakdown"], e2_breakdown),
    Experiment::new("fig_vma_sweep", &["fig_vma_sweep"], e2b_vma_sweep),
    Experiment::new("fig_cow_storm", &["fig_cow_storm"], e3a_cow_storm),
    Experiment::new("fig_cow_native", &["fig_cow_native"], e3a_cow_native),
    Experiment::new("fig_fork_scaling", &["fig_fork_scaling"], e3b_fork_scaling),
    Experiment::new("tab_overcommit", &["tab_overcommit"], e4_overcommit),
    Experiment::new(
        "tab_thread_safety",
        &["tab_thread_safety"],
        e5_thread_safety,
    ),
    Experiment::new("tab_stdio_dup", &["tab_stdio_dup"], e6_stdio_dup),
    Experiment::new("tab_api_matrix", &["tab_api_matrix"], e7_api_matrix),
    Experiment::new(
        "tab_spawn_actions",
        &["tab_spawn_actions"],
        e7_spawn_actions,
    ),
    Experiment::new("tab_aslr", &["tab_aslr"], e8a_aslr),
    Experiment::new("tab_forkbomb", &["tab_forkbomb"], e8b_forkbomb),
    Experiment::new(
        "tab_faultmatrix",
        &["tab_faultmatrix", "tab_e9_robustness"],
        e9_faultmatrix,
    ),
    Experiment::new(
        "fig_odf_storm",
        &["fig_odf_storm", "BENCH_fork_modes"],
        e10_odf_storm,
    ),
    Experiment::new(
        "fig_spawn_fastpath",
        &["fig_spawn_fastpath", "BENCH_spawn_fastpath"],
        e11_spawn_fastpath,
    ),
    Experiment::new(
        "fig_pressure",
        &["fig_pressure", "BENCH_pressure"],
        e12_pressure,
    ),
    Experiment::new("fig_swap", &["fig_swap", "BENCH_swap"], e13_swap),
    Experiment::new("BENCH_thp", &["BENCH_thp"], e14_thp),
    Experiment::new(
        "fig_service",
        &["fig_service", "BENCH_service"],
        e15_service,
    ),
    Experiment::new(
        "fig_smp",
        &["fig_smp", "tab_smp_contention", "BENCH_smp"],
        e16_smp,
    ),
    Experiment::new(
        "fig_cell_failure",
        &["fig_cell_failure", "tab_cell_failure", "BENCH_faults_smp"],
        e17_cell_failure,
    ),
    Experiment::new("trace_demo", &["trace_demo"], trace_demo),
];

/// E1 / Figure 1: creation latency vs parent footprint, 1 MiB → 4 GiB.
fn e1_fig1() -> Output {
    let fig = fig1::run(&fpr_trace::fig1_footprints());
    let fork = fig.series("fork+exec").expect("series");
    let spawn = fig.series("posix_spawn").expect("series");
    let shape = format!(
        "shape check: fork grows {:.1}x across sweep; spawn grows {:.2}x; \
         fork/spawn at max = {:.1}x",
        fork.growth_factor().unwrap_or(0.0),
        spawn.growth_factor().unwrap_or(0.0),
        fork.last_y().unwrap_or(0.0) / spawn.last_y().unwrap_or(1.0),
    );
    Output::of(fig).line(shape)
}

/// A host-kernel cross-check: the figure, or — off Linux — why there is
/// none.
fn native(fig: Result<FigureData, fpr_native::NativeError>) -> Output {
    match fig {
        Ok(fig) => Output::of(fig),
        Err(e) => Output::default().line(format!("native measurement unavailable: {e}")),
    }
}

/// E1 on the host Linux kernel, 1 → 64 MiB.
fn e1_fig1_native() -> Output {
    native(fpr_native::run_native_fig1(&[1, 16, 64], 7).map(|rows| {
        let mut fig = FigureData::new(
            "fig1_native",
            "native process creation latency vs parent footprint",
            "parent MiB",
            "latency us",
        );
        let mut fork = Series::new("fork+exec");
        let mut vfork = Series::new("vfork+exec");
        let mut spawn = Series::new("posix_spawn");
        for r in &rows {
            fork.push(r.footprint_mib, r.fork_exec_us);
            vfork.push(r.footprint_mib, r.vfork_exec_us);
            spawn.push(r.footprint_mib, r.posix_spawn_us);
        }
        fig.series = vec![fork, vfork, spawn];
        fig
    }))
}

/// E2: fork cost decomposition, 1 MiB → 1 GiB.
fn e2_breakdown() -> Output {
    Output::of(breakdown::run(&[
        256, 1_024, 4_096, 16_384, 65_536, 262_144,
    ]))
}

/// E2b: fork cost vs mapping count at a fixed 8 MiB footprint.
fn e2b_vma_sweep() -> Output {
    Output::of(vma_sweep::run(2_048, &[1, 16, 256, 1_024]))
}

/// E3a: COW fault storm — total cost vs post-fork touch fraction.
fn e3a_cow_storm() -> Output {
    let fig = cow::run(2_048, &[0.0, 0.25, 0.5, 0.75, 1.0]);
    let crossover = match cow::crossover(&fig) {
        Some(x) => format!("COW stops winning at touch fraction {x:.2}"),
        None => "COW never crossed eager in this sweep".to_string(),
    };
    Output::of(fig).line(crossover)
}

/// E3a on the host kernel: fork + child dirtying a swept fraction of an
/// 8 MiB buffer.
fn e3a_cow_native() -> Output {
    native(
        fpr_native::run_native_cow(8, &[0.0, 0.25, 0.5, 0.75, 1.0], 5).map(|rows| {
            let mut fig = FigureData::new(
                "fig_cow_native",
                "native fork + child-dirty total vs touch fraction",
                "touch fraction",
                "total us",
            );
            let mut s = Series::new("fork_dirty_wait");
            for r in &rows {
                s.push(r.touch_fraction, r.total_us);
            }
            fig.series = vec![s];
            fig
        }),
    )
}

/// E3b: fork and COW-break cost vs CPUs running the parent.
fn e3b_fork_scaling() -> Output {
    Output::of(scaling::run(&[1, 2, 4, 8, 16, 32, 64], 4_096))
}

/// E4: fork-then-touch under the three overcommit policies.
fn e4_overcommit() -> Output {
    Output::of(overcommit::run(&[0.25, 0.45, 0.60, 0.90]))
}

/// E5: what a child finds of its parent's held locks, per creation path.
fn e5_thread_safety() -> Output {
    let t = threads::run(&[1, 4, 16], &[0.25, 1.0], 20);
    let col = |name: &str| t.columns.iter().position(|c| c == name).expect("E5 column");
    let (hold, path, dead, refused) = (col("hold_prob"), col("path"), col("deadlock_rate"), col("refused_rate"));
    // Each (threads, hold_prob) cell is five rows, one per path, all run
    // on the same parents: a fork child that meets a held lock deadlocks,
    // the atfork prepare handler refuses exactly the forks that would
    // have, and a child that runs only after exec has no lock to meet.
    for cell in t.rows.chunks(5) {
        let rates = |name: &str| {
            let r = cell.iter().find(|r| r[path] == name).expect("E5 path");
            (r[dead].as_str(), r[refused].as_str())
        };
        let (fork_dead, _) = rates("fork");
        assert!(
            cell[0][hold] != "1.00" || fork_dead == "1.00",
            "E5: fork at p = 1 must always deadlock, read {fork_dead}"
        );
        assert_eq!(
            rates("fork+atfork"),
            ("0.00", fork_dead),
            "E5: atfork must refuse exactly the forks that deadlock, and no child may deadlock"
        );
        for name in ["vfork+exec", "posix_spawn", "xproc"] {
            assert_eq!(rates(name), ("0.00", "0.00"), "E5: {name} must read 0 / 0");
        }
    }
    Output::of(t)
}

/// E6: buffered output duplicated by each creation API.
fn e6_stdio_dup() -> Output {
    Output::of(stdio::run(&[0, 64, 2_048]))
}

/// E7: what each creation API can give its child, measured cell by cell.
fn e7_api_matrix() -> Output {
    let t = api_matrix::run();
    let cell = |cap: &str, api: &str| t.rows.iter().find(|r| r[0] == cap && r[1] == api).expect("E7 cell");
    let support = |cap: &str, api: &str| cell(cap, api)[4].as_str();
    let coverage = |api: &str| t.rows.iter().filter(|r| r[1] == api && r[4] != "-").count();
    let apis = ["fork", "vfork", "clone", "posix_spawn", "xproc"];
    for api in apis {
        // Only the fork family hands its child the parent's memory by default.
        let snapshot = support("memory snapshot", api) == "implicit";
        assert!(!snapshot || ["fork", "vfork", "clone"].contains(&api), "E7: {api} snapshots implicitly");
        assert!(coverage("xproc") >= coverage(api), "E7: {api} covers more than xproc");
    }
    assert_eq!(support("memory snapshot", "fork"), "implicit", "E7: fork must snapshot");
    assert_eq!(support("memory setup", "posix_spawn"), "-", "E7: posix_spawn cannot express memory setup");
    let covered: Vec<String> = apis.iter().map(|api| format!("{api} {}/14", coverage(api))).collect();
    Output::of(t).line(format!("shape check: coverage {} (xproc must be highest)", covered.join(", ")))
}

/// E7, cost side: posix_spawn latency as the file-action list grows.
fn e7_spawn_actions() -> Output {
    Output::of(spawn_actions::run(&[0, 2, 8, 32, 128]))
}

/// E8a: ASLR layout sharing — zygote forking vs spawn-per-child.
fn e8a_aslr() -> Output {
    Output::of(aslr::run(16))
}

/// E8b: fork-bomb containment by RLIMIT_NPROC.
fn e8b_forkbomb() -> Output {
    Output::of(forkbomb::run(&[16, 64, 256], 1_024))
}

/// E9: API × fail-site sweep plus retry-under-pressure comparison.
fn e9_faultmatrix() -> Output {
    let (m, summary) = robustness::run();
    let dirty = m.rows.iter().filter(|r| r[4] != "clean").count();
    let shape = format!(
        "shape check: {} (api, site) cells swept, {dirty} dirty (must be 0)",
        m.rows.len()
    );
    Output::of(m).and(summary).line(shape)
}

/// Parent footprint (pages) the E10/E11 snapshots take their medians at.
const FOOTPRINT: u64 = 4_096;
const SEEDS: [u64; 5] = [11, 23, 42, 77, 91];

/// Median of a seed-parameterised measurement across the ASLR seed set.
fn median_over_seeds(f: impl Fn(u64) -> u64) -> u64 {
    let mut samples: Vec<u64> = SEEDS.iter().map(|&seed| f(seed)).collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median simulated cycles of one creation via `path` from a
/// [`FOOTPRINT`]-page parent across the ASLR seed set.
fn median_cycles(path: CreationPath) -> u64 {
    median_over_seeds(|seed| {
        let shape = ProcessShape::with_heap(FOOTPRINT);
        let (mut os, parent) = world_seeded(machine_for(FOOTPRINT), seed, shape);
        os.measure(|os| os.create(parent, path).expect("creation"))
            .1
    })
}

fn fork_median(mode: ForkMode) -> u64 {
    median_cycles(CreationPath::Fork(mode))
}

/// E10: on-demand fork fault storm — where the deferred page-table copy
/// goes when fork stops paying it — and the API × mode cycle medians,
/// the machine-tracked perf snapshot.
fn e10_odf_storm() -> Output {
    let fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let fig = odf_storm::run(16_384, &fractions);
    // Headline shape: fork-time saving vs total-work conservation.
    let fork_ratio = fig
        .series("cow_fork")
        .zip(fig.series("ondemand_fork"))
        .and_then(|(c, o)| Some(c.last_y()? / o.last_y()?));
    let total_gap = fig
        .series("cow_total")
        .zip(fig.series("ondemand_total"))
        .and_then(|(c, o)| Some((o.last_y()? - c.last_y()?).abs() / c.last_y()?));
    let headline = fork_ratio.zip(total_gap).map(|(r, g)| {
        format!(
            "fork itself is {r:.0}x cheaper on-demand; fully-touched totals differ {:.1}%",
            g * 100.0
        )
    });

    let (cow, ondemand) = (fork_median(ForkMode::Cow), fork_median(ForkMode::OnDemand));
    // The snapshot must show the PR's point: on-demand fork is in the
    // flat class (vfork/spawn), not the page-proportional one.
    assert!(
        ondemand * 5 < cow,
        "on-demand fork must be far below COW fork at {FOOTPRINT} pages"
    );
    let vfork = median_cycles(CreationPath::Vfork);
    let spawn = median_cycles(CreationPath::Spawn("/bin/tool"));
    let medians = [
        ("fork", "cow", cow),
        ("fork", "eager", fork_median(ForkMode::Eager)),
        ("fork", "ondemand", ondemand),
        ("vfork", "share", vfork),
        ("posix_spawn", "fresh", spawn),
    ]
    .map(|(api, mode, cycles)| {
        rec([
            ("api", text(api)),
            ("mode", text(mode)),
            ("cycles", int(cycles)),
        ])
    });
    let mut out = Output::of(fig).and(snapshot(
        "BENCH_fork_modes",
        [
            ("footprint_pages", int(FOOTPRINT)),
            ("aslr_seeds", int(SEEDS.len())),
            ("median_cycles", Value::Arr(medians.into())),
        ],
    ));
    out.summary.extend(headline);
    out
}

/// E11: spawn fast path (image cache + warm pool) vs fork(OnDemand)
/// across parent footprints, 1 MiB → 4 GiB, and the per-footprint seed
/// medians tracked alongside the fork modes (the 4 GiB point lives in
/// the core tests — the snapshot keeps the sweep short).
fn e11_spawn_fastpath() -> Output {
    let fig = spawn_fastpath::run(&fpr_trace::fig1_footprints());
    let spawns = [
        ("posix_spawn", Mode::Plain),
        ("spawn(cache)", Mode::Cache),
        ("spawn(cache+pool)", Mode::CachePool),
    ];
    let mut medians: Vec<(u64, &str, u64)> = Vec::new();
    for fp in [256, FOOTPRINT, 65_536] {
        for (api, mode) in spawns {
            let cycles = median_over_seeds(|s| spawn_fastpath::measure_spawn_seeded(mode, fp, s));
            medians.push((fp, api, cycles));
        }
        let cycles = median_over_seeds(|s| spawn_fastpath::measure_odf_seeded(fp, s));
        medians.push((fp, "fork(ondemand)", cycles));
    }

    // At the reference footprint the cached+pooled spawn beats every fork
    // flavour, and the fork flavours keep their established order.
    let at_ref = |api: &'static str| {
        let found = medians.iter().find(|m| (m.0, m.1) == (FOOTPRINT, api));
        (api, found.expect("swept").2)
    };
    let order = [
        at_ref("spawn(cache+pool)"),
        at_ref("fork(ondemand)"),
        ("fork(cow)", fork_median(ForkMode::Cow)),
        ("fork(eager)", fork_median(ForkMode::Eager)),
    ];
    for pair in order.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1,
            "E11 ordering violated at {FOOTPRINT} pages: {} ({}) > {} ({})",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
    let medians = medians.iter().map(|&(fp, api, cycles)| {
        rec([
            ("footprint_pages", int(fp)),
            ("api", text(api)),
            ("cycles", int(cycles)),
        ])
    });
    Output::of(fig).and(snapshot(
        "BENCH_spawn_fastpath",
        [
            ("aslr_seeds", int(SEEDS.len())),
            ("median_cycles", Value::Arr(medians.collect())),
        ],
    ))
}

/// E12: memory-pressure storm — spawn latency through the three storm
/// phases with the fast-path caches registered as shrinkers, plus the
/// OOM body count of the shrinker-less baseline at identical demand.
fn e12_pressure() -> Output {
    let (with, without) = pressure::run_pair();
    // The shrinker arm absorbing the whole storm with zero OOM kills is
    // a hard guarantee of the memory-pressure subsystem — a regression
    // fails `make verify`, not a reader of the figure.
    assert_eq!(
        with.oom_victims.len(),
        0,
        "pressure storm with shrinkers must not OOM-kill (victims: {:?})",
        with.oom_victims
    );
    assert!(
        !without.oom_victims.is_empty(),
        "shrinker-less baseline must show the OOM failure mode"
    );
    let shrinkers = rec([
        ("oom_kills", int(with.oom_victims.len())),
        ("reclaim_passes", int(with.reclaim_passes)),
        ("frames_reclaimed", int(with.frames_reclaimed)),
        ("stall_cycles", int(with.stall_cycles)),
        (
            "spawn_cycles",
            ints([with.spawn_before, with.spawn_during, with.spawn_after]),
        ),
    ]);
    let baseline = rec([
        ("oom_kills", int(without.oom_victims.len())),
        (
            "pinned_frames_at_first_kill",
            int(without.pinned_frames_at_first_kill),
        ),
    ]);
    Output::of(pressure::figure(&with, &without)).and(snapshot(
        "BENCH_pressure",
        [
            ("storm_pages", int(with.touched_pages)),
            ("shrinkers", shrinkers),
            ("baseline", baseline),
        ],
    ))
}

/// E13: the same storm machine with a swap tier below the shrinkers.
fn e13_swap() -> Output {
    let (with, without) = pressure::run_swap_pair();
    // The swap arm absorbing 1.5x physical memory with zero OOM kills is
    // the hard guarantee — the killer is a last resort, not the first
    // response — along with the thrash signal the refault loop provokes
    // on purpose.
    assert_eq!(
        with.oom_victims.len(),
        0,
        "swap storm must absorb without OOM kills (victims: {:?})",
        with.oom_victims
    );
    assert!(
        with.touched_pages > pressure::STORM_FRAMES,
        "swap arm must dirty more pages than physical memory"
    );
    assert!(
        with.thrash_seen,
        "refault loop must assert the thrash signal"
    );
    assert!(
        !without.oom_victims.is_empty(),
        "swapless baseline must show the OOM failure mode"
    );
    let swap = rec([
        ("oom_kills", int(with.oom_victims.len())),
        ("swap_outs", int(with.swap_outs)),
        ("swap_ins", int(with.swap_ins)),
        ("refaults", int(with.refaults)),
        ("peak_slots_used", int(with.peak_slots_used)),
        ("stall_cycles", int(with.stall_cycles)),
        ("thrashed", Value::Bool(with.thrash_seen)),
    ]);
    let baseline = rec([
        ("oom_kills", int(without.oom_victims.len())),
        ("survivors", int(without.survivors)),
    ]);
    Output::of(pressure::swap_figure(&with, &without)).and(snapshot(
        "BENCH_swap",
        [
            ("storm_pages", int(with.touched_pages)),
            ("swap", swap),
            ("baseline", baseline),
        ],
    ))
}

/// One E14 world at `footprint` pages: fork(OnDemand) cycles, the
/// fork's page-table term, TLB entries flushed tearing the heap down,
/// and huge blocks mapped.
fn thp_probe(thp: bool, footprint: u64) -> (u64, u64, u64, u64) {
    let cost = fpr_mem::CostModel::default();
    let boot = || {
        let machine = fpr_kernel::MachineConfig {
            thp,
            ..machine_for(footprint)
        };
        world(machine, ProcessShape::with_heap(footprint))
    };
    let (mut os, parent) = boot();
    let huge_blocks = os.kernel.memory(parent).unwrap().aspace.huge_pages();
    let before = fpr_trace::metrics::snapshot();
    let (_, fork_cycles) = os.measure(|os| {
        os.fork_stats(parent, ForkMode::OnDemand).expect("fork");
    });
    let d = fpr_trace::metrics::snapshot().delta(&before);
    let pt_term = d.counter("mem.fork.pte_copy") * cost.pte_copy
        + d.counter("mem.fork.pt_subtree_share") * cost.pt_subtree_share;

    let (mut os, parent) = boot();
    let aspace = &os.kernel.memory(parent).unwrap().aspace;
    let heap: Vec<(fpr_mem::Vpn, u64)> = aspace
        .vmas()
        .filter(|v| v.kind == fpr_mem::VmaKind::Mmap)
        .map(|v| (v.start, v.pages))
        .collect();
    let before = fpr_trace::metrics::snapshot();
    let mut released = 0;
    for (start, pages) in heap {
        os.kernel.munmap(parent, start, pages).expect("munmap");
        released += pages;
    }
    let d = fpr_trace::metrics::snapshot().delta(&before);
    // The small-page world's legacy shootdown is a broadcast with no
    // per-entry accounting, so its entry count is the released page
    // count — every per-page translation the region held.
    let entries = if thp {
        d.counter("mem.tlb.entries_flushed")
    } else {
        released
    };
    (fork_cycles, pt_term, entries, huge_blocks)
}

/// E14: transparent huge pages at a fully promotable 4 GiB heap. Whole
/// huge directories share with one pointer copy, so the fork's
/// page-table term (PTE copies + subtree shares) collapses; a huge block
/// invalidates as one ranged TLB entry instead of 512, so teardown does.
fn e14_thp() -> Output {
    let fp: u64 = 1_048_576;
    let (small_fork, small_pt, small_entries, small_blocks) = thp_probe(false, fp);
    let (thp_fork, thp_pt, thp_entries, thp_blocks) = thp_probe(true, fp);
    assert_eq!(small_blocks, 0, "THP-off world must stay small-paged");
    assert_eq!(
        thp_blocks,
        fp / 512,
        "4 GiB heap must be fully promoted under THP"
    );
    assert!(
        thp_fork <= small_fork,
        "fork(OnDemand+THP) {thp_fork} must not exceed fork(OnDemand) {small_fork}"
    );
    assert!(
        small_pt >= 100 * thp_pt.max(1),
        "THP must shrink the fork page-table term >=100x: {small_pt} vs {thp_pt}"
    );
    assert!(
        small_entries >= 100 * thp_entries.max(1),
        "THP must shrink unmap shootdown entries >=100x: {small_entries} vs {thp_entries}"
    );
    let small = rec([
        ("cycles", int(small_fork)),
        ("pt_term_cycles", int(small_pt)),
    ]);
    let huge = rec([
        ("cycles", int(thp_fork)),
        ("pt_term_cycles", int(thp_pt)),
        ("huge_blocks", int(thp_blocks)),
    ]);
    let entries = rec([("small", int(small_entries)), ("thp", int(thp_entries))]);
    Output::of(snapshot(
        "BENCH_thp",
        [
            ("footprint_pages", int(fp)),
            ("fork_ondemand", small),
            ("fork_ondemand_thp", huge),
            ("unmap_shootdown_entries", entries),
        ],
    ))
}

/// E15: open-loop service workload — per-creation-path p50/p95/p99 under
/// a Poisson arrival stream, sustained throughput against the offered
/// rate, and the pool-drain → classic-fallback → recovery series.
fn e15_service() -> Output {
    let outcome = service::run_service(&ServiceConfig::default());
    assert_eq!(
        outcome.oom_kills, 0,
        "service workload at the default rate must not OOM-kill"
    );
    let p99 = |p: CreationPath| outcome.stats(p).hist.p99();
    let spawn = p99(CreationPath::Spawn(service::SERVICE_BIN));
    let odf = p99(CreationPath::ForkOnDemand(service::SERVICE_BIN));
    let cow = p99(CreationPath::ForkCow(service::SERVICE_BIN));
    assert!(
        spawn < odf,
        "p99(spawn fastpath) {spawn} must beat p99(fork OnDemand) {odf}"
    );
    assert!(
        odf < cow,
        "p99(fork OnDemand) {odf} must beat p99(fork Cow) {cow}"
    );

    let d = service::run_degradation();
    assert_eq!(d.oom_kills, 0, "degradation arm must not OOM-kill");
    assert!(
        d.pool_parked[0] > 0 && d.pool_parked[1] == 0 && d.pool_parked[2] > 0,
        "pool must drain under pressure and recover: parked {:?}",
        d.pool_parked
    );
    let fallback_ratio = d.spawn_latency[1] as f64 / d.classic_reference as f64;
    assert!(
        (0.9..=1.1).contains(&fallback_ratio),
        "drained-pool spawn must cost the classic path: {} vs reference {} (ratio {:.3})",
        d.spawn_latency[1],
        d.classic_reference,
        fallback_ratio
    );
    assert!(
        d.spawn_latency[2] < d.spawn_latency[1],
        "recovered spawn {} must beat the degraded spawn {}",
        d.spawn_latency[2],
        d.spawn_latency[1]
    );

    let (offered, sustained) = (service::OFFERED_RATE, outcome.sustained_rate);
    let per_path = outcome.per_path.iter().map(|st| {
        rec([
            ("path", text(service::label(st.path))),
            ("served", int(st.served)),
            ("p50", int(st.hist.p50())),
            ("p95", int(st.hist.p95())),
            ("p99", int(st.hist.p99())),
        ])
    });
    let degradation = rec([
        ("spawn_cycles", ints(d.spawn_latency)),
        ("pool_parked", ints(d.pool_parked)),
        ("classic_reference_cycles", int(d.classic_reference)),
        ("oom_kills", int(d.oom_kills)),
    ]);
    let snap = snapshot(
        "BENCH_service",
        [
            ("requests", int(outcome.completed)),
            ("offered_rate_per_s", int(offered.round() as u64)),
            ("sustained_rate_per_s", int(sustained.round() as u64)),
            ("oom_kills", int(outcome.oom_kills)),
            ("per_path_cycles", Value::Arr(per_path.collect())),
            ("degradation", degradation),
        ],
    );
    Output::of(service::figure(&outcome, &d))
        .and(snap)
        .line(format!(
            "# {} requests at {offered:.0}/s offered, sustained {sustained:.0}/s, \
             {} autoscale refills",
            outcome.completed, outcome.autoscaled
        ))
}

const SMP_ARMS: [&str; 3] = ["fork_cow_shared", "fork_cow_private", "spawn_fast"];

/// E16: fork's multicore scaling collapse — creation throughput vs worker
/// threads (real OS threads, virtual time), with the per-lock contention
/// counters saying where each arm serialized.
fn e16_smp() -> Output {
    let out = smp::run();
    let [shared, private, spawn] = SMP_ARMS.map(|arm| out.speedup(arm, 4));
    assert!(
        private >= 2.0,
        "private-mm fork must reach 2x at 4 threads: {private:.2}"
    );
    assert!(
        spawn > shared,
        "spawn fastpath must outscale shared-mm fork: {spawn:.2} vs {shared:.2}"
    );
    // A cell per worker scales with the workers, and the cells never meet
    // on the frame pool: each takes back the frames it freed.
    for arm in &SMP_ARMS[1..] {
        for t in smp::THREADS {
            let speedup = out.speedup(arm, t);
            assert!(
                speedup >= 0.9 * t as f64,
                "{arm} must reach 0.9x per thread at {t} threads: {speedup:.2}"
            );
            let buddy = out.point(arm, t).and_then(|p| p.contention.get("buddy"));
            assert!(
                buddy.is_none_or(|s| s.contended_acquires == 0),
                "{arm} at {t} threads waited on the frame pool: {buddy:?}"
            );
        }
    }
    for arm in SMP_ARMS {
        assert_eq!(
            out.contended(arm, 1),
            0,
            "{arm}: one thread must never contend"
        );
    }
    let hot = out.point("fork_cow_shared", 4).expect("shared point");
    let mm_stats = hot.contention.get("mm").expect("mm lock stats");
    assert!(
        mm_stats.contended_acquires > 0,
        "shared-mm arm at 4 threads must contend on mm"
    );
    assert!(
        out.points.iter().all(|p| p.violations == 0),
        "no SMP arm may leave structural violations"
    );

    let arms = out.points.iter().map(|p| {
        let waited: u64 = p.contention.values().map(|s| s.wait_cycles).sum();
        rec([
            ("arm", text(p.arm)),
            ("threads", int(p.threads)),
            ("ops", int(p.ops)),
            ("wall_cycles", int(p.wall_cycles)),
            ("throughput_ops_per_ms", real(p.throughput)),
            ("contended_acquires", int(out.contended(p.arm, p.threads))),
            ("wait_cycles", int(waited)),
            ("violations", int(p.violations)),
        ])
    });
    let at_4 = rec([
        (SMP_ARMS[0], real(shared)),
        (SMP_ARMS[1], real(private)),
        (SMP_ARMS[2], real(spawn)),
    ]);
    let snap = snapshot(
        "BENCH_smp",
        [
            ("ops_per_worker", int(smp::OPS_PER_WORKER)),
            ("arms", Value::Arr(arms.collect())),
            ("speedup_at_4_threads", at_4),
        ],
    );
    let mut o = Output::of(out.figure())
        .and(out.contention_table())
        .and(snap)
        .line("# speedup vs 1 thread (virtual time)".to_string());
    for arm in SMP_ARMS {
        let per_t: Vec<String> = smp::THREADS
            .iter()
            .map(|&t| format!("{t}t {:.2}x", out.speedup(arm, t)))
            .collect();
        o = o.line(format!("{arm:>18}: {}", per_t.join(", ")));
    }
    o
}

/// E17: concurrent fault injection across four storming cells, then a
/// cell fail-stop recovered to a clean N−1 quiesce. Either arm panics at
/// quiesce on an uncontained fault or a leaked frame or PID, and at any
/// lock taken out of order, so reaching the snapshot is what makes
/// `contained` and `clean_quiesce` true and proves the lock order held.
fn e17_cell_failure() -> Output {
    let out = smp_faults::run();
    let (sweep, failstop, failure) = (&out.sweep, &out.failstop, &out.failstop.failure);
    assert!(sweep.injected_ops > 0, "the concurrent sweep must inject");
    assert!(
        sweep.sites_injected() >= 5,
        "injection must spread across the creation surface: {} sites",
        sweep.sites_injected()
    );
    assert_eq!(
        failstop.live_cells,
        smp_faults::THREADS - 1,
        "fail-stop must degrade to exactly N-1 live cells"
    );
    assert!(
        failstop.ops_after_failure > 0,
        "survivors must keep working after the failure"
    );
    let sweep = rec([
        ("ops", int(sweep.ops)),
        ("injected_ops", int(sweep.injected_ops)),
        ("sites_crossed", int(sweep.sites_crossed())),
        ("sites_injected", int(sweep.sites_injected())),
        ("contained", Value::Bool(true)),
    ]);
    let fail_stop = rec([
        ("site", text(failure.site.name())),
        ("evacuated", int(failure.evacuated)),
        ("ops_after_failure", int(failstop.ops_after_failure)),
        ("live_cells", int(failstop.live_cells)),
        ("clean_quiesce", Value::Bool(true)),
    ]);
    let snap = snapshot(
        "BENCH_faults_smp",
        [
            ("threads", int(smp_faults::THREADS)),
            ("ops_per_worker", int(smp_faults::OPS_PER_WORKER)),
            ("inject_per_1024", int(smp_faults::INJECT_PER_1024)),
            ("sweep", sweep),
            ("fail_stop", fail_stop),
        ],
    );
    Output::of(out.figure()).and(out.table()).and(snap)
}

/// Demonstration trace: an on-demand fork followed by an exec in the
/// child, recorded through [`fpr_kernel::Kernel::trace_scope`]. Load
/// `results/trace_demo.json` in `about:tracing` or
/// <https://ui.perfetto.dev> to see the span tree; the same tree is
/// printed as a text flamegraph. Its timestamps are the kernel's own
/// cycle counter, so the file regenerates byte for byte.
fn trace_demo() -> Output {
    use fpr_mem::{Prot, Share};
    // Fault-site instants carry this thread's cumulative crossing count;
    // start it from zero so the row traces the same after other rows as
    // it does alone.
    fpr_faults::reset_coverage();
    let mut k = fpr_kernel::Kernel::boot();
    let init = k.create_init("init").expect("boot init");
    let mut reg = fpr_exec::ImageRegistry::new();
    reg.register("/bin/tool", fpr_exec::Image::small("tool"));

    // Give the parent a populated heap so the fork has page-table
    // subtrees to share and the post-fork write breaks one of them.
    let base = k
        .mmap_anon(init, 4_096, Prot::RW, Share::Private)
        .expect("map heap");
    k.populate(init, base, 4_096).expect("populate heap");
    let tid = k.process(init).expect("parent exists").main_tid();

    let ((), events) = k.trace_scope(|k| {
        let (child, _stats) =
            fpr_api::fork_from_thread(k, init, tid, ForkMode::OnDemand).expect("fork fits");
        fpr_exec::execve(k, child, &reg, "/bin/tool", 42).expect("exec child");
        // Touch a shared page: the deferred page-table copy and the COW
        // machinery fire and show up as instants in the trace.
        k.write_mem(init, base, 7).expect("write heap");
    });
    assert!(
        sink::spans_balanced(&events),
        "begin/end events must balance"
    );
    Output::default().and(Artifact::Trace("trace_demo", events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    fn repo_file(rel: &str) -> String {
        let path = format!("{ROOT}/{rel}");
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Ids of the `<prefix>*.json` files in the repo's `dir`.
    fn json_ids(dir: &str, prefix: &str) -> BTreeSet<String> {
        fs::read_dir(format!("{ROOT}/{dir}"))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|f| f.expect("dir entry").file_name())
            .map(|name| name.into_string().expect("utf-8 name"))
            .filter(|name| name.starts_with(prefix))
            .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
            .collect()
    }

    fn emitted() -> BTreeSet<&'static str> {
        CATALOGUE
            .iter()
            .flat_map(|e| e.emits.iter().copied())
            .collect()
    }

    /// The outputs `make results-identity` leaves out of its diff, read
    /// from the one place that names them.
    fn host_scheduled() -> BTreeSet<String> {
        let makefile = repo_file("Makefile");
        let line = makefile
            .lines()
            .find_map(|l| l.strip_prefix("HOST_SCHEDULED :="))
            .expect("Makefile names the host-scheduled outputs");
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn ids_are_unique() {
        let rows: BTreeSet<_> = CATALOGUE.iter().map(|e| e.id).collect();
        assert_eq!(rows.len(), CATALOGUE.len(), "duplicate row id");
        let declared: usize = CATALOGUE.iter().map(|e| e.emits.len()).sum();
        assert_eq!(emitted().len(), declared, "two rows emit the same artifact");
    }

    #[test]
    fn every_id_is_in_the_experiments_index() {
        let doc = repo_file("EXPERIMENTS.md");
        // The index names a snapshot by its file, `BENCH_x.json`.
        let index: Vec<String> = doc
            .lines()
            .skip_while(|l| *l != "## Index")
            .take_while(|l| *l != "---")
            .map(|l| l.replace(".json`", "`"))
            .collect();
        for id in CATALOGUE.iter().map(|e| e.id).chain(emitted()) {
            assert!(
                index.iter().any(|row| row.contains(&format!("`{id}`"))),
                "{id} has no row in EXPERIMENTS.md's index table"
            );
        }
    }

    #[test]
    fn results_dir_is_the_catalogue() {
        let emitted = emitted();
        let host = host_scheduled();
        for id in &host {
            assert!(
                emitted.contains(id.as_str()),
                "Makefile excludes unknown output {id}"
            );
        }
        let mut committed = json_ids("results", "");
        committed.extend(json_ids(".", "BENCH_"));
        for id in &committed {
            assert!(emitted.contains(id.as_str()), "{id}.json: no row emits it");
        }
        for id in emitted.iter().filter(|id| !host.contains(**id)) {
            assert!(committed.contains(*id), "{id}.json is not committed");
        }
        let doc = repo_file("docs/BENCHMARKS.md");
        for id in emitted.iter().filter(|id| id.starts_with("BENCH_")) {
            assert!(
                doc.contains(&format!("{id}.json")),
                "docs/BENCHMARKS.md must document {id}.json"
            );
        }
    }

    /// Pins the snapshot layout rule without running an experiment.
    #[test]
    fn committed_snapshots_rerender_byte_for_byte() {
        for file in ["BENCH_service.json", "BENCH_spawn_fastpath.json"] {
            let text = repo_file(file);
            let record = json::parse(&text).expect("valid JSON");
            assert_eq!(
                snapshot_json(&record),
                text,
                "{file}: the layout rule moved"
            );
        }
    }

    #[test]
    fn forkroad_results_redirects_every_artifact() {
        let status = || {
            let git = std::process::Command::new("git")
                .args(["status", "--short"])
                .current_dir(ROOT)
                .output();
            git.map(|o| o.stdout).ok()
        };
        let before = status();
        let dir = std::env::temp_dir().join(format!("forkroad-{}", std::process::id()));
        std::env::set_var("FORKROAD_RESULTS", &dir);
        let rows = ["fig_pressure", "fig_cell_failure"];
        for row in CATALOGUE.iter().filter(|e| rows.contains(&e.id)) {
            row.run_and_emit();
        }
        std::env::remove_var("FORKROAD_RESULTS");
        for id in [
            "fig_pressure",
            "BENCH_pressure",
            "tab_cell_failure",
            "BENCH_faults_smp",
        ] {
            let file = dir.join(format!("{id}.json"));
            assert!(file.is_file(), "{id}.json did not follow FORKROAD_RESULTS");
        }
        assert_eq!(
            status(),
            before,
            "a redirected run wrote inside the repository"
        );
        fs::remove_dir_all(&dir).expect("remove the temp dir");
    }
}
