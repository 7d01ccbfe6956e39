//! E17: fig_cell_failure — the SMP machine under concurrent fault
//! injection and cell fail-stop.
//!
//! E16 showed the core *scales*; E17 shows it stays *correct* while
//! failing. Two arms:
//!
//! * **faultsweep_storm** — [`THREADS`] real OS threads storm the
//!   machine with the E16 creation mix, but every creation op runs
//!   under its own per-op [`FaultPlan::random`] derived from one root
//!   seed (SplitMix64 over `(cell seed, op index)`), so injections land
//!   concurrently on every thread at whatever [`FaultSite`]s the ops
//!   cross. Containment is checked at three radii: the failed op
//!   returns a clean `Err` with no half-made child, the injured cell
//!   passes `check_invariants` immediately (under its own mm lock,
//!   before the next op), and after the storm the whole machine passes
//!   [`SmpOs::check_quiesced`] — per-cell leak checks plus machine-wide
//!   frame conservation. Site coverage is the booting thread's
//!   [`fpr_faults::coverage`] plus every worker's, added up in the arm.
//! * **fail_stop_storm** — the same storm, except worker 0 kills cell 0
//!   mid-flight with `SmpOs::fail_cell`: a dying operation injected
//!   at a chosen site, then recovery (evacuate every process, settle the
//!   cell's block and drain its parked frames). Survivors poll
//!   `SmpOs::is_dead` and redirect; the machine must quiesce clean at
//!   N−1 cells with the dead cell *empty*.
//!
//! Both arms also hold the failure paths to the documented
//! `mm → pid → buddy → tlb` lock order: [`fpr_trace::smp::VLock`] refuses
//! an acquisition that breaks it by panicking, so an arm that returns
//! took its locks in order under storm, injection and fail-stop alike.

use crate::kit::{smp_machine, CreationPath};
use crate::smp::{CellFailure, SmpOs};
use fpr_faults::{derive_cell_seed, FaultPlan, FaultSite, SiteCoverage};
use fpr_mem::ForkMode;
use fpr_rng::Rng;
use fpr_trace::{FigureData, Series, TableData};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Worker threads (and cells) in both arms.
pub const THREADS: usize = 4;

/// Creation ops each worker attempts per arm.
pub const OPS_PER_WORKER: usize = 96;

/// Per-crossing injection probability, in 1024ths, for the sweep arm.
pub const INJECT_PER_1024: u16 = 64;

/// Root seed; every per-op plan derives from it deterministically.
pub(crate) const SEED: u64 = 0xE17_0F41_157E;

/// The site armed for the dying operation in the fail-stop arm.
pub(crate) const FAIL_SITE: FaultSite = FaultSite::PidAlloc;

/// Ops worker 0 completes before killing cell 0.
const OPS_BEFORE_FAILURE: usize = OPS_PER_WORKER / 2;

/// The creation mix every SMP storm draws from, uniformly.
pub const CREATION_MIX: [CreationPath; 4] = [
    CreationPath::Fork(ForkMode::Cow),
    CreationPath::Vfork,
    CreationPath::Spawn("/bin/cat"),
    CreationPath::ForkCow("/bin/grep"),
];

/// One storm op against the locked cell: a draw from [`CREATION_MIX`],
/// with the creation itself wrapped in `plan`. Returns `true` if the plan
/// injected. Children are destroyed immediately — outside the plan, so
/// cleanup can never be the thing that fails.
fn storm_op(os: &mut crate::os::Os, rng: &mut Rng, plan: FaultPlan) -> bool {
    let init = os.init;
    let path = CREATION_MIX[rng.gen_index(CREATION_MIX.len())];
    let (child, trace) = fpr_faults::with_plan(plan, || os.create(init, path));
    let injected = !trace.injected().is_empty();
    match child {
        Ok(c) => os.reap(init, c).expect("exit and reap"),
        Err(_) => {
            // Containment radius 1: the op failed clean — a transactional
            // creation leaves no half-made child. Radius 2: the injured
            // cell is structurally sound *right now*, not just at quiesce.
            assert!(
                injected,
                "creation failed without an injected fault in an idle-pressure storm"
            );
            os.kernel
                .check_invariants()
                .expect("cell inconsistent immediately after injection");
        }
    }
    injected
}

/// Picks a live cell: the worker's home cell, or (25 % of the time) a
/// random raid target, skipping dead cells.
fn pick_cell(rng: &mut Rng, worker: usize, smp: &SmpOs) -> Option<usize> {
    let want = if rng.gen_bool(0.25) {
        rng.gen_index(smp.ncells())
    } else {
        worker % smp.ncells()
    };
    (0..smp.ncells())
        .map(|off| (want + off) % smp.ncells())
        .find(|&c| !smp.is_dead(c))
}

/// The concurrent-injection arm's results.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Creation ops attempted across all workers.
    pub ops: u64,
    /// Ops that had a fault injected (and were contained).
    pub injected_ops: u64,
    /// Per-site crossings and injections, summed across threads.
    pub coverage: Vec<(FaultSite, SiteCoverage)>,
    /// Slowest worker's virtual elapsed cycles.
    pub wall_cycles: u64,
}

impl SweepOutcome {
    /// Sites that were both crossed and injected during the storm.
    pub fn sites_injected(&self) -> usize {
        self.coverage.iter().filter(|(_, c)| c.injections > 0).count()
    }

    /// Sites crossed at all (the storm's reachable surface).
    pub fn sites_crossed(&self) -> usize {
        self.coverage.iter().filter(|(_, c)| c.crossings > 0).count()
    }
}

/// Adds `more` into `total`, site by site; both list every site in
/// [`FaultSite::ALL`] order, as [`fpr_faults::coverage`] does.
fn add_coverage(total: &mut [(FaultSite, SiteCoverage)], more: &[(FaultSite, SiteCoverage)]) {
    for ((_, t), (_, m)) in total.iter_mut().zip(more) {
        t.crossings += m.crossings;
        t.injections += m.injections;
    }
}

/// Arm 1: every worker storms with per-op random fault plans; the
/// machine must quiesce clean afterwards (the call panics otherwise).
pub(crate) fn faultsweep_storm(root_seed: u64) -> SweepOutcome {
    // The coverage window opens before boot: what booting the machine
    // crosses counts with what the storm crosses.
    fpr_faults::reset_coverage();
    let smp = SmpOs::boot(smp_machine(), THREADS);
    let injected_ops = AtomicU64::new(0);
    let workers_coverage = Mutex::new(FaultSite::ALL.map(|site| (site, SiteCoverage::default())));
    let elapsed = smp.run(THREADS, |worker, smp| {
        let mut rng = Rng::seed_from_u64(derive_cell_seed(root_seed, worker));
        // Home cell only: with one worker per cell, each cell's op
        // sequence — and therefore each op's crossing sequence and every
        // injection decision — is deterministic regardless of how the
        // host scheduler interleaves threads. Cross-cell concurrency
        // still hammers the shared pid/buddy/tlb subsystems underneath.
        let cell = worker % smp.ncells();
        for op in 0..OPS_PER_WORKER {
            let mut os = smp.cell(cell).lock();
            let plan_seed = derive_cell_seed(root_seed, worker)
                .wrapping_add(op as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if storm_op(&mut os, &mut rng, FaultPlan::random(plan_seed, INJECT_PER_1024)) {
                injected_ops.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut total = workers_coverage.lock().expect("no worker panics while adding");
        add_coverage(&mut *total, &fpr_faults::coverage());
    });
    // Containment radius 3: machine-wide — per-cell leak checks against
    // boot baselines plus shared-pool frame conservation.
    smp.check_quiesced();
    let mut coverage = fpr_faults::coverage();
    let workers_coverage = workers_coverage.into_inner().expect("no worker panics while adding");
    add_coverage(&mut coverage, &workers_coverage);
    SweepOutcome {
        ops: (THREADS * OPS_PER_WORKER) as u64,
        injected_ops: injected_ops.into_inner(),
        coverage,
        wall_cycles: elapsed.into_iter().max().unwrap_or(0),
    }
}

/// The fail-stop arm's results.
#[derive(Debug, Clone)]
pub struct FailStopOutcome {
    /// What the failure did (site, evacuated count).
    pub failure: CellFailure,
    /// Creation ops survivors completed *after* the cell died.
    pub ops_after_failure: u64,
    /// Cells still alive at quiesce (gate: [`THREADS`] − 1).
    pub live_cells: usize,
}

/// Arm 2: the same storm, but worker 0 fail-stops cell 0 halfway
/// through; survivors redirect and the machine quiesces clean at N−1.
pub(crate) fn fail_stop_storm(root_seed: u64) -> FailStopOutcome {
    let smp = SmpOs::boot(smp_machine(), THREADS);
    let failure = Mutex::new(None);
    let ops_after_failure = AtomicU64::new(0);
    smp.run(THREADS, |worker, smp| {
        let mut rng = Rng::seed_from_u64(derive_cell_seed(root_seed, worker) ^ 0xFA11);
        for op in 0..OPS_PER_WORKER {
            if worker == 0 && op == OPS_BEFORE_FAILURE {
                // No fault plan is active on this thread (each op wraps
                // only itself), so fail_cell may arm the dying gasp.
                *failure.lock().unwrap() = Some(smp.fail_cell(0, FAIL_SITE));
            }
            let Some(cell) = pick_cell(&mut rng, worker, smp) else {
                break;
            };
            let mut os = smp.cell(cell).lock();
            if smp.is_dead(cell) {
                // Lost the race with fail_cell between the poll and the
                // lock: the cell is an empty husk — route elsewhere.
                continue;
            }
            storm_op(&mut os, &mut rng, FaultPlan::passive());
            if smp.is_dead(0) {
                ops_after_failure.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    smp.check_quiesced();
    FailStopOutcome {
        failure: failure.into_inner().unwrap().expect("worker 0 killed cell 0"),
        ops_after_failure: ops_after_failure.into_inner(),
        live_cells: smp.live_cells(),
    }
}

/// Both arms.
#[derive(Debug, Clone)]
pub struct CellFailureOutcome {
    /// Arm 1: concurrent injection storm.
    pub sweep: SweepOutcome,
    /// Arm 2: fail-stop and recovery mid-storm.
    pub failstop: FailStopOutcome,
}

impl CellFailureOutcome {
    /// Per-site crossings and injections during the concurrent sweep:
    /// x is the site index in [`FaultSite::ALL`] order.
    pub fn figure(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig_cell_failure",
            "concurrent fault injection: per-site crossings and contained injections",
            "fault site index",
            "events",
        );
        let mut crossings = Series::new("crossings");
        let mut injections = Series::new("contained_injections");
        for (site, cov) in &self.sweep.coverage {
            crossings.push(site.index() as f64, cov.crossings as f64);
            injections.push(site.index() as f64, cov.injections as f64);
        }
        fig.series.push(crossings);
        fig.series.push(injections);
        fig
    }

    /// One row per fault site plus summary rows for both arms.
    pub fn table(&self) -> TableData {
        let mut t = TableData::new(
            "tab_cell_failure",
            "E17: concurrent faultsweep coverage and fail-stop recovery",
            &["row", "crossings", "injections", "note"],
        );
        for (site, cov) in &self.sweep.coverage {
            if cov.crossings == 0 {
                continue;
            }
            t.push_row(vec![
                format!("site:{}", site.name()),
                cov.crossings.to_string(),
                cov.injections.to_string(),
                String::new(),
            ]);
        }
        t.push_row(vec![
            "sweep".into(),
            self.sweep.ops.to_string(),
            self.sweep.injected_ops.to_string(),
            String::new(),
        ]);
        t.push_row(vec![
            "fail_stop".into(),
            self.failstop.ops_after_failure.to_string(),
            self.failstop.failure.evacuated.to_string(),
            format!(
                "live_cells={} site={}",
                self.failstop.live_cells,
                self.failstop.failure.site.name(),
            ),
        ]);
        t
    }
}

/// Runs both arms at the default seed.
pub fn run() -> CellFailureOutcome {
    run_with(SEED)
}

/// Runs both arms at a chosen root seed.
pub(crate) fn run_with(root_seed: u64) -> CellFailureOutcome {
    CellFailureOutcome {
        sweep: faultsweep_storm(root_seed),
        failstop: fail_stop_storm(root_seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_sweep_injects_widely_and_quiesces_clean() {
        let out = faultsweep_storm(SEED);
        assert_eq!(out.ops, (THREADS * OPS_PER_WORKER) as u64);
        assert!(
            out.injected_ops > out.ops / 10,
            "the sweep must actually inject: {} of {}",
            out.injected_ops,
            out.ops
        );
        assert!(
            out.sites_injected() >= 5,
            "injections must spread across the creation surface: {} sites",
            out.sites_injected()
        );
        assert!(out.sites_crossed() >= out.sites_injected());
        assert!(out.wall_cycles > 0);
    }

    #[test]
    fn sweep_replays_deterministic_injection_counts() {
        // Thread interleaving varies; the per-(worker, op) plans do not.
        // Injection decisions depend only on the plan and each op's own
        // crossing sequence, so totals replay exactly.
        let a = faultsweep_storm(0x000D_5EED);
        let b = faultsweep_storm(0x000D_5EED);
        assert_eq!(a.injected_ops, b.injected_ops);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn fail_stop_recovers_to_n_minus_one_mid_storm() {
        let out = fail_stop_storm(SEED);
        assert_eq!(out.live_cells, THREADS - 1);
        assert!(out.failure.died_at_site, "fork always crosses pid_alloc");
        assert!(out.failure.evacuated >= 1, "at least init was reaped");
        assert!(
            out.ops_after_failure > 0,
            "survivors kept creating processes after the failure"
        );
    }

    #[test]
    fn figure_and_table_have_the_shape() {
        let out = run();
        let fig = out.figure();
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), FaultSite::ALL.len());
        let t = out.table();
        assert!(t.rows.len() >= 2, "site rows plus two summary rows");
        assert!(t.rows.iter().any(|r| r[0] == "sweep"));
        assert!(t.rows.iter().any(|r| r[0] == "fail_stop"));
    }
}
