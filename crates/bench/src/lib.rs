//! The evaluation catalogue: every figure and table of the paper's
//! evaluation has exactly one row in [`CATALOGUE`] — its one sweep, the
//! artifacts it emits, the summary lines it prints. `run_all [id…]` is
//! the only way to run them; what a bare `run_all` writes to `results/`
//! is what is committed there, and `make results-identity` gates the
//! two against each other byte for byte.

use forkroad_core::experiments::{
    aslr, breakdown, cow, fig1, forkbomb, odf_storm, overcommit, pressure, robustness, scaling,
    service, smp, smp_faults, spawn_actions, spawn_fastpath, stdio, threads, vma_sweep,
};
use fpr_mem::CYCLES_PER_US;
use fpr_trace::{FigureData, Series, TableData};
use std::fs;
use std::path::PathBuf;

/// Directory experiment outputs are written to (repo-relative).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("FORKROAD_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    let _ = fs::create_dir_all(&p);
    p
}

/// One emitted result: a figure or a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// Series over a shared x axis.
    Figure(FigureData),
    /// Column headers and string rows.
    Table(TableData),
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

impl Artifact {
    /// The id the artifact is saved under (`results/<id>.json`).
    pub fn id(&self) -> &str {
        match self {
            Artifact::Figure(f) => &f.id,
            Artifact::Table(t) => &t.id,
        }
    }

    fn render(&self) -> String {
        match self {
            Artifact::Figure(f) => f.render(),
            Artifact::Table(t) => t.render(),
        }
    }

    fn to_json(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_json(),
            Artifact::Table(t) => t.to_json(),
        }
    }

    fn reparse(&self, text: &str) -> Result<Artifact, String> {
        match self {
            Artifact::Figure(_) => FigureData::from_json(text).map(Artifact::Figure),
            Artifact::Table(_) => TableData::from_json(text).map(Artifact::Table),
        }
    }
}

/// Prints an artifact, persists its JSON, and proves the written file
/// parses back through the typed reader to the artifact it came from — a
/// malformed emitter fails here, not in a later plotting script.
///
/// # Panics
///
/// Panics if the file cannot be written or does not round-trip.
pub fn emit(artifact: &Artifact) {
    let id = artifact.id();
    println!("{}", artifact.render());
    let path = results_dir().join(format!("{id}.json"));
    fs::write(&path, artifact.to_json())
        .unwrap_or_else(|e| panic!("{id}: could not write {}: {e}", path.display()));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("{id}: emitted file unreadable: {e}"));
    let back = artifact
        .reparse(&text)
        .unwrap_or_else(|e| panic!("{id}: bad JSON: {e}"));
    assert_eq!(
        &back, artifact,
        "{id}: JSON round-trip changed the artifact"
    );
    println!("[saved {}]", path.display());
}

/// What one experiment produced: artifacts to emit, then lines to print.
#[derive(Debug, Default)]
pub struct Output {
    /// Figures and tables, in emission order.
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
    /// these — or none, for a host measurement the host cannot take.
    pub emits: &'static [&'static str],
    /// The experiment's one sweep.
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
    Experiment::new("tab_api_matrix", &[], e7_api_matrix),
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
    Experiment::new("fig_odf_storm", &["fig_odf_storm"], e10_odf_storm),
    Experiment::new(
        "fig_spawn_fastpath",
        &["fig_spawn_fastpath"],
        e11_spawn_fastpath,
    ),
    Experiment::new("fig_pressure", &["fig_pressure"], e12_pressure),
    Experiment::new("fig_swap", &["fig_swap"], e13_swap),
    Experiment::new("fig_service", &["fig_service"], e15_service),
    Experiment::new("fig_smp", &["fig_smp", "tab_smp_contention"], e16_smp),
    Experiment::new(
        "fig_cell_failure",
        &["fig_cell_failure", "tab_cell_failure"],
        e17_cell_failure,
    ),
];

fn us(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_US as f64
}

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

/// A host-kernel cross-check: the figure, or why the host cannot take it.
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

/// E5: post-fork deadlock incidence and auditor detection rate.
fn e5_thread_safety() -> Output {
    Output::of(threads::run(&[1, 4, 16], &[0.25, 1.0], 20))
}

/// E6: buffered output duplicated by each creation API.
fn e6_stdio_dup() -> Output {
    Output::of(stdio::run(&[0, 64, 2_048]))
}

/// E7: the API capability matrix (printed, not saved: it is a constant
/// of `fpr-api`, not a measurement).
fn e7_api_matrix() -> Output {
    Output::default().line(fpr_api::render_matrix().trim_end().to_string())
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
    let m = robustness::fault_matrix();
    let dirty = m.rows.iter().filter(|r| r[4] != "clean").count();
    let shape = format!(
        "shape check: {} (api, site) cells swept, {dirty} dirty (must be 0)",
        m.rows.len()
    );
    Output::of(m).and(robustness::run()).line(shape)
}

/// E10: on-demand fork fault storm — where the deferred page-table copy
/// goes when fork stops paying it.
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
    let mut out = Output::of(fig);
    out.summary.extend(headline);
    out
}

/// E11: spawn fast path (image cache + warm pool) vs fork(OnDemand)
/// across parent footprints, 1 MiB → 4 GiB.
fn e11_spawn_fastpath() -> Output {
    Output::of(spawn_fastpath::run(&fpr_trace::fig1_footprints()))
}

/// E12: memory-pressure storm — spawn latency through the three storm
/// phases with the fast-path caches registered as shrinkers, plus the
/// OOM body count of the shrinker-less baseline at identical demand.
fn e12_pressure() -> Output {
    let (with, without) = pressure::run_pair();
    Output::of(pressure::run())
        .line(format!(
            "# storm detail (demand = {} pages)",
            with.touched_pages
        ))
        .line(format!(
            "shrinkers:    {} oom kills, {} reclaim passes, {} frames reclaimed, {} stall cycles",
            with.oom_victims.len(),
            with.reclaim_passes,
            with.frames_reclaimed,
            with.stall_cycles
        ))
        .line(format!(
            "no shrinkers: {} oom kills ({} cache frames pinned at first kill)",
            without.oom_victims.len(),
            without.pinned_frames_at_first_kill
        ))
}

/// E13: the same storm machine with a swap tier below the shrinkers.
fn e13_swap() -> Output {
    let (with, without) = pressure::run_swap_pair();
    Output::of(pressure::run_swap())
        .line(format!(
            "# swap storm detail (demand = {} pages)",
            with.touched_pages
        ))
        .line(format!(
            "with swap: {} oom kills, {} swap-outs, {} swap-ins, {} refaults, peak {} slots, \
             {} stall cycles{}",
            with.oom_victims.len(),
            with.swap_outs,
            with.swap_ins,
            with.refaults,
            with.peak_slots_used,
            with.stall_cycles,
            if with.thrash_seen { " (thrashed)" } else { "" }
        ))
        .line(format!(
            "no swap:   {} oom kills, {}/4 workers survived",
            without.oom_victims.len(),
            without.survivors
        ))
}

/// E15: open-loop service workload — per-creation-path p50/p95/p99 under
/// a Poisson arrival stream, sustained throughput against the offered
/// rate, and the pool-drain → classic-fallback → recovery series.
fn e15_service() -> Output {
    let outcome = service::run_service(&service::ServiceConfig::default());
    let mut out = Output::of(service::run()).line(format!(
        "# service detail ({} requests at {:.0}/s offered, sustained {:.0}/s, {} autoscale refills)",
        outcome.completed, outcome.config.offered_rate, outcome.sustained_rate, outcome.autoscaled
    ));
    for st in &outcome.per_path {
        out = out.line(format!(
            "{:>22}: {:>4} served, p50 {:>7.2} us, p95 {:>7.2} us, p99 {:>7.2} us",
            st.path.label(),
            st.served,
            us(st.hist.p50()),
            us(st.hist.p95()),
            us(st.hist.p99()),
        ));
    }
    out = out.line(format!(
        "{:>22}: p50 {:.2} us, p99 {:.2} us, {} oom kills",
        "sojourn",
        us(outcome.sojourn.p50()),
        us(outcome.sojourn.p99()),
        outcome.oom_kills
    ));
    let d = service::run_degradation();
    out.line(format!(
        "# degradation: spawn {:.2} -> {:.2} -> {:.2} us (classic ref {:.2}), \
         pool {} -> {} -> {}, {} oom kills",
        us(d.spawn_latency[0]),
        us(d.spawn_latency[1]),
        us(d.spawn_latency[2]),
        us(d.classic_reference),
        d.pool_parked[0],
        d.pool_parked[1],
        d.pool_parked[2],
        d.oom_kills
    ))
}

/// E16: fork's multicore scaling collapse — creation throughput vs worker
/// threads (real OS threads, virtual time), with the per-lock contention
/// counters saying where each arm serialized.
fn e16_smp() -> Output {
    let out = smp::run();
    let mut o = Output::of(out.figure())
        .and(out.contention_table())
        .line("# speedup vs 1 thread (virtual time)".to_string());
    for arm in ["fork_cow_shared", "fork_cow_private", "spawn_fast"] {
        let per_t: Vec<String> = smp::THREADS
            .iter()
            .map(|&t| format!("{t}t {:.2}x", out.speedup(arm, t)))
            .collect();
        o = o.line(format!("{arm:>18}: {}", per_t.join(", ")));
    }
    o
}

/// E17: concurrent fault injection across four storming cells, then a
/// cell fail-stop recovered to a clean N−1 quiesce.
fn e17_cell_failure() -> Output {
    let out = smp_faults::run();
    Output::of(out.figure()).and(out.table())
}

/// Minimal wall-clock micro-timer for the `benches/` targets (the
/// workspace builds without criterion, so the bench harnesses are plain
/// `main` functions using this).
///
/// Each iteration runs `setup` untimed, then times `op` on its output.
/// Reports the median over `iters` runs in microseconds.
pub fn time_batched<S, T, R>(label: &str, iters: u32, mut setup: impl FnMut() -> S, mut op: T)
where
    T: FnMut(S) -> R,
{
    let mut samples_us: Vec<f64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let input = setup();
        let start = std::time::Instant::now();
        let out = op(input);
        let elapsed = start.elapsed();
        std::hint::black_box(out);
        samples_us.push(elapsed.as_secs_f64() * 1e6);
    }
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = samples_us[samples_us.len() / 2];
    let min = samples_us.first().copied().unwrap_or(0.0);
    let max = samples_us.last().copied().unwrap_or(0.0);
    println!("{label:<40} median {median:>10.1} us  (min {min:.1}, max {max:.1}, n={iters})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn repo_file(rel: &str) -> String {
        let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
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
        let index: Vec<&str> = doc.lines().filter(|l| l.starts_with("| E")).collect();
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
        let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
        let committed: BTreeSet<String> = fs::read_dir(&dir)
            .expect("results/")
            .map(|f| {
                f.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
            .collect();
        for id in committed.iter().filter(|id| *id != "trace_demo") {
            assert!(
                emitted.contains(id.as_str()),
                "results/{id}.json: no row emits it"
            );
        }
        for id in emitted.iter().filter(|id| !host.contains(**id)) {
            assert!(
                committed.contains(*id),
                "results/{id}.json is not committed"
            );
        }
    }
}
