//! E16: fig_smp — process-creation throughput vs core count, and where
//! fork stops scaling.
//!
//! Three arms, each swept over 1/2/4/8 worker threads (real OS threads,
//! virtual time — see `crate::smp`):
//!
//! * **fork_cow_shared** — every worker forks children of *one* parent
//!   in *one* cell. This is the paper's claim made concrete: fork COW
//!   serializes on the parent's mm, so adding cores adds nothing.
//! * **fork_cow_private** — one cell (and parent) per worker. Same
//!   syscall, no shared mm: throughput scales with cores, showing the
//!   collapse above is the API's sharing, not the machine.
//! * **spawn_fast** — one cell per worker, children built by the spawn
//!   fast path from a per-cell warm pool. Scales like the private arm
//!   while doing less work per op: the fork-free design the paper
//!   recommends composes with multicore instead of fighting it.
//!
//! Each arm also reports the contention its machine's locks counted
//! ([`SmpOs::lock_stats`]) during its measured window, so the figure can
//! say *where* the serialized arms waited (mm vs pid vs buddy vs tlb).
//! Single-threaded arms report zero contention by construction — a
//! thread never waits on itself.

use crate::kit::{smp_machine, CreationPath, Work};
use crate::smp::SmpOs;
use fpr_kernel::Pid;
use fpr_mem::ForkMode;
use fpr_trace::smp::LockStats;
use fpr_trace::{FigureData, ProcessShape, Series, TableData, CYCLES_PER_US};
use std::collections::BTreeMap;

/// Thread counts swept by [`run`].
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Process-creation ops each worker performs per measured window.
pub const OPS_PER_WORKER: u64 = 48;

/// Heap pages of each fork arm's parent (big enough that the COW
/// page-table pass dominates the op).
const PARENT_HEAP: u64 = 256;

const SPAWN_BIN: &str = "/bin/sh";

/// One arm at one thread count.
#[derive(Debug, Clone)]
pub struct SmpPoint {
    /// Arm label.
    pub arm: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Total creation ops completed.
    pub ops: u64,
    /// Virtual wall time: the slowest worker's elapsed cycles.
    pub wall_cycles: u64,
    /// `ops / wall`, in ops per virtual millisecond.
    pub throughput: f64,
    /// Per-lock contention accumulated during the measured window.
    pub contention: BTreeMap<&'static str, LockStats>,
    /// Structural violations found after the run (must be empty).
    pub violations: usize,
}

fn throughput(ops: u64, wall_cycles: u64) -> f64 {
    if wall_cycles == 0 {
        return 0.0;
    }
    ops as f64 / (wall_cycles as f64 / (CYCLES_PER_US as f64 * 1000.0))
}

fn measure(
    arm: &'static str,
    threads: usize,
    smp: &SmpOs,
    f: impl Fn(usize, &SmpOs) + Send + Sync,
) -> SmpPoint {
    // Setup can wait: the booting thread's clock restarts at zero after
    // boot, behind the release stamps boot left on the PID shards.
    let setup = smp.lock_stats();
    let elapsed = smp.run(threads, f);
    let wall = elapsed.into_iter().max().unwrap_or(0);
    let ops = OPS_PER_WORKER * threads as u64;
    SmpPoint {
        arm,
        threads,
        ops,
        wall_cycles: wall,
        throughput: throughput(ops, wall),
        contention: waits_since(smp, &setup),
        violations: smp.violations().len(),
    }
}

/// The contention `smp`'s locks counted since `before` was read, by lock
/// name; a lock nobody waited on in between is left out.
fn waits_since(
    smp: &SmpOs,
    before: &BTreeMap<&'static str, LockStats>,
) -> BTreeMap<&'static str, LockStats> {
    smp.lock_stats()
        .into_iter()
        .map(|(name, now)| {
            let was = before[name];
            let waited = LockStats {
                contended_acquires: now.contended_acquires - was.contended_acquires,
                wait_cycles: now.wait_cycles - was.wait_cycles,
            };
            (name, waited)
        })
        .filter(|(_, s)| s.contended_acquires > 0)
        .collect()
}

/// A parent for the fork arms in cell `c`.
fn parent_in(smp: &SmpOs, c: usize) -> Pid {
    smp.cell(c)
        .lock()
        .make_parent(ProcessShape::with_heap(PARENT_HEAP))
        .expect("parent fits")
}

/// [`OPS_PER_WORKER`] fork requests against `parent`, taking cell `c`'s
/// lock for each one.
fn fork_requests(smp: &SmpOs, c: usize, parent: Pid) {
    for _ in 0..OPS_PER_WORKER {
        smp.cell(c)
            .lock()
            .serve(parent, CreationPath::Fork(ForkMode::Cow), Work::Nothing)
            .expect("fork, exit, reap");
    }
}

/// fork_cow_shared: all workers fork one parent in one cell.
pub(crate) fn fork_cow_shared(threads: usize) -> SmpPoint {
    let smp = SmpOs::boot(smp_machine(), 1);
    let parent = parent_in(&smp, 0);
    measure("fork_cow_shared", threads, &smp, move |_, smp| {
        fork_requests(smp, 0, parent)
    })
}

/// fork_cow_private: one cell and one parent per worker.
pub(crate) fn fork_cow_private(threads: usize) -> SmpPoint {
    let smp = SmpOs::boot(smp_machine(), threads);
    let parents: Vec<Pid> = (0..threads).map(|c| parent_in(&smp, c)).collect();
    measure("fork_cow_private", threads, &smp, move |t, smp| {
        fork_requests(smp, t, parents[t])
    })
}

/// spawn_fast: one cell per worker, warm-pool spawns instead of forks.
pub(crate) fn spawn_fast(threads: usize) -> SmpPoint {
    let smp = SmpOs::boot(smp_machine(), threads);
    for c in 0..threads {
        smp.cell(c)
            .lock()
            .warm_pool(SPAWN_BIN, 4)
            .expect("fast path on, pool prefilled");
    }
    measure("spawn_fast", threads, &smp, |t, smp| {
        for _ in 0..OPS_PER_WORKER {
            let mut os = smp.cell(t).lock();
            let init = os.init;
            os.serve(init, CreationPath::Spawn(SPAWN_BIN), Work::Nothing)
                .expect("spawn, exit, reap");
            os.pool_autoscale(SPAWN_BIN, 4).expect("autoscale");
        }
    })
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct SmpOutcome {
    /// Every (arm, thread-count) measurement.
    pub points: Vec<SmpPoint>,
}

impl SmpOutcome {
    /// The measured point for `(arm, threads)`.
    pub fn point(&self, arm: &str, threads: usize) -> Option<&SmpPoint> {
        self.points
            .iter()
            .find(|p| p.arm == arm && p.threads == threads)
    }

    /// Throughput at `threads` relative to the same arm at one thread.
    pub fn speedup(&self, arm: &str, threads: usize) -> f64 {
        let one = self.point(arm, 1).map(|p| p.throughput).unwrap_or(0.0);
        let t = self.point(arm, threads).map(|p| p.throughput).unwrap_or(0.0);
        if one == 0.0 {
            0.0
        } else {
            t / one
        }
    }

    /// Total contended acquisitions across all locks at one point.
    pub fn contended(&self, arm: &str, threads: usize) -> u64 {
        self.point(arm, threads)
            .map(|p| p.contention.values().map(|s| s.contended_acquires).sum())
            .unwrap_or(0)
    }

    /// Throughput-vs-threads figure, one series per arm.
    pub fn figure(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig_smp",
            "process-creation throughput vs worker threads (virtual time)",
            "worker threads",
            "ops/ms",
        );
        for arm in ["fork_cow_shared", "fork_cow_private", "spawn_fast"] {
            let mut s = Series::new(arm);
            for p in self.points.iter().filter(|p| p.arm == arm) {
                s.push(p.threads as f64, p.throughput);
            }
            fig.series.push(s);
        }
        fig
    }

    /// Where each arm waited: one row per (arm, threads, lock).
    pub fn contention_table(&self) -> TableData {
        let mut t = TableData::new(
            "tab_smp_contention",
            "lock contention by arm (virtual cycles)",
            &["arm", "threads", "lock", "contended", "wait_cycles"],
        );
        for p in &self.points {
            for (name, s) in &p.contention {
                t.push_row(vec![
                    p.arm.to_string(),
                    p.threads.to_string(),
                    (*name).to_string(),
                    s.contended_acquires.to_string(),
                    s.wait_cycles.to_string(),
                ]);
            }
        }
        t
    }
}

/// Runs every arm over [`THREADS`].
pub fn run() -> SmpOutcome {
    run_with(&THREADS)
}

/// Runs every arm over the given thread counts.
pub(crate) fn run_with(threads: &[usize]) -> SmpOutcome {
    let mut points = Vec::new();
    for &t in threads {
        points.push(fork_cow_shared(t));
        points.push(fork_cow_private(t));
        points.push(spawn_fast(t));
    }
    SmpOutcome { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_point_reads_only_its_own_machines_waits() {
        // Machine A: two workers forking one parent in one cell wait on
        // its mm lock, inside the window of a one-thread point on B.
        let a = SmpOs::boot(smp_machine(), 1);
        let a_parent = parent_in(&a, 0);
        let b = SmpOs::boot(smp_machine(), 1);
        let b_parent = parent_in(&b, 0);
        let point = measure("b", 1, &b, |_, b| {
            a.run(2, |_, a| fork_requests(a, 0, a_parent));
            fork_requests(b, 0, b_parent);
        });
        assert!(a.lock_stats()["mm"].contended_acquires > 0, "A's workers waited");
        assert!(
            point.contention.is_empty(),
            "B's one thread never waited: {:?}",
            point.contention
        );
        assert_eq!(point.violations, 0);
    }

    #[test]
    fn shared_mm_collapses_private_scales() {
        let out = run_with(&[1, 4]);
        let shared = out.speedup("fork_cow_shared", 4);
        let private = out.speedup("fork_cow_private", 4);
        assert!(
            shared < 1.5,
            "shared-mm fork must not scale: speedup {shared:.2}"
        );
        assert!(
            private >= 2.0,
            "private-mm fork must scale past 2x at 4 threads: {private:.2}"
        );
        assert!(private > shared);
    }

    #[test]
    fn spawn_fastpath_outscales_shared_fork() {
        let out = run_with(&[1, 4]);
        let spawn = out.speedup("spawn_fast", 4);
        let shared = out.speedup("fork_cow_shared", 4);
        assert!(
            spawn > shared,
            "spawn fast path must scale strictly better than shared fork: \
             {spawn:.2} vs {shared:.2}"
        );
    }

    #[test]
    fn contention_appears_only_under_multicore() {
        let out = run_with(&[1, 4]);
        for arm in ["fork_cow_shared", "fork_cow_private", "spawn_fast"] {
            assert_eq!(
                out.contended(arm, 1),
                0,
                "{arm}: a single thread never contends with itself"
            );
        }
        let p = out.point("fork_cow_shared", 4).unwrap();
        let mm = p.contention.get("mm").expect("mm contention recorded");
        assert!(mm.contended_acquires > 0 && mm.wait_cycles > 0);
        assert_eq!(p.violations, 0);
    }

    #[test]
    fn figure_and_table_have_the_shape() {
        let out = run_with(&[1, 2]);
        let fig = out.figure();
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), 2);
        }
        assert!(!out.contention_table().rows.is_empty());
    }
}
