//! E5: fork isn't thread-safe — deadlock incidence and auditor accuracy.
//!
//! Synthesises multithreaded parents whose worker threads hold locks with
//! a given probability, forks them, and has the child exercise every
//! lock. Counts actual post-fork deadlocks and compares against what the
//! fork-safety auditor predicted *before* the fork. The reproduction
//! requirement: the auditor has zero false negatives.

use crate::os::{Os, OsConfig};
use fpr_audit::audit_fork_safety;
use fpr_kernel::{sync, Errno};
use fpr_trace::TableData;
use fpr_rng::Rng;

/// Aggregated result for one (threads, hold probability) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ThreadSafetyCell {
    /// Worker threads (besides main).
    pub threads: u32,
    /// Probability each worker held its lock at fork time.
    pub hold_prob: f64,
    /// Trials run.
    pub trials: u32,
    /// Trials in which the child deadlocked on ≥1 lock.
    pub deadlocks: u32,
    /// Trials the auditor flagged as critical before the fork.
    pub flagged: u32,
    /// Deadlocking trials the auditor missed (must be zero).
    pub false_negatives: u32,
}

/// Runs one cell of `trials` trials.
pub(crate) fn run_cell(threads: u32, hold_prob: f64, trials: u32, seed: u64) -> ThreadSafetyCell {
    let mut rng = Rng::seed_from_u64(seed);
    let mut deadlocks = 0;
    let mut flagged = 0;
    let mut false_negatives = 0;
    for _ in 0..trials {
        let mut os = Os::boot(OsConfig::default());
        let parent = os.kernel.allocate_process(os.init, "mt").expect("alloc");
        let main = os.kernel.process(parent).expect("proc").main_tid();
        // Each worker registers one lock and maybe holds it.
        let mut locks = Vec::new();
        for i in 0..threads {
            let name = match i % 3 {
                0 => sync::names::MALLOC_ARENA,
                1 => sync::names::STDIO,
                _ => sync::names::APP,
            };
            let lock = os.kernel.register_lock(parent, name).expect("lock");
            let tid = os.kernel.spawn_thread(parent).expect("thread");
            if rng.gen_bool(hold_prob) {
                os.kernel.lock_acquire(parent, tid, lock).expect("acquire");
            }
            locks.push(lock);
        }
        let report = audit_fork_safety(&os.kernel, parent, main).expect("audit");
        let predicted = !report.is_safe();
        if predicted {
            flagged += 1;
        }
        let child = os.fork(parent).expect("fork");
        let c_main = os.kernel.process(child).expect("child").main_tid();
        let mut deadlocked = false;
        for lock in &locks {
            match os.kernel.lock_acquire(child, c_main, *lock) {
                Err(Errno::Edeadlk) => deadlocked = true,
                Ok(()) => os
                    .kernel
                    .lock_release(child, c_main, *lock)
                    .expect("release"),
                Err(e) => panic!("unexpected lock error {e}"),
            }
        }
        if deadlocked {
            deadlocks += 1;
            if !predicted {
                false_negatives += 1;
            }
        }
    }
    ThreadSafetyCell {
        threads,
        hold_prob,
        trials,
        deadlocks,
        flagged,
        false_negatives,
    }
}

/// Runs the grid and formats the table.
pub fn run(thread_counts: &[u32], hold_probs: &[f64], trials: u32) -> TableData {
    let mut t = TableData::new(
        "tab_thread_safety",
        "post-fork deadlock incidence and auditor detection",
        &[
            "threads",
            "hold_prob",
            "trials",
            "deadlock_rate",
            "auditor_flag_rate",
            "false_negatives",
        ],
    );
    let mut seed = 9000;
    for &n in thread_counts {
        for &p in hold_probs {
            seed += 1;
            let c = run_cell(n, p, trials, seed);
            t.push_row(vec![
                c.threads.to_string(),
                format!("{:.2}", c.hold_prob),
                c.trials.to_string(),
                format!("{:.2}", c.deadlocks as f64 / c.trials as f64),
                format!("{:.2}", c.flagged as f64 / c.trials as f64),
                c.false_negatives.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_threads_no_deadlocks() {
        let c = run_cell(0, 1.0, 5, 1);
        assert_eq!(c.deadlocks, 0);
        assert_eq!(c.false_negatives, 0);
    }

    #[test]
    fn certain_hold_always_deadlocks_and_is_always_flagged() {
        let c = run_cell(4, 1.0, 10, 2);
        assert_eq!(c.deadlocks, 10);
        assert_eq!(c.flagged, 10);
        assert_eq!(c.false_negatives, 0);
    }

    #[test]
    fn deadlock_rate_grows_with_threads() {
        let few = run_cell(1, 0.3, 40, 3);
        let many = run_cell(16, 0.3, 40, 3);
        assert!(
            many.deadlocks > few.deadlocks,
            "{} vs {}",
            many.deadlocks,
            few.deadlocks
        );
    }

    #[test]
    fn auditor_never_misses() {
        for (n, p, s) in [(2u32, 0.5, 10u64), (8, 0.25, 11), (16, 0.75, 12)] {
            let c = run_cell(n, p, 20, s);
            assert_eq!(c.false_negatives, 0, "auditor missed at n={n} p={p}");
            assert!(c.flagged >= c.deadlocks, "flags must cover deadlocks");
        }
    }
}
