//! E5: fork isn't thread-safe — what a child finds of its parent's locks,
//! by creation path.
//!
//! Synthesises multithreaded parents whose worker threads each hold one
//! lock with a given probability, and creates a child of each such parent
//! five ways (`PATHS`). The witness is the child itself: at the first
//! point it can run code — straight after fork, after exec for the paths
//! that exec — it tries to take every lock in its own lock table. A trial
//! deadlocks when some lock refuses with `EDEADLK` (its owner does not
//! exist in the child), and is refused when creation itself returns an
//! error (an atfork prepare handler finding its lock held by a worker).

use crate::kit::CreationPath;
use crate::os::{Os, OsConfig};
use fpr_kernel::{sync, AtforkRegistration, Errno, KResult};
use fpr_mem::ForkMode;
use fpr_rng::Rng;
use fpr_trace::TableData;

/// The creation paths compared, in table order: a name, the call, and
/// whether the parent first registers a `pthread_atfork` handler covering
/// every one of its locks.
pub(crate) const PATHS: [(&str, CreationPath, bool); 5] = [
    ("fork", CreationPath::Fork(ForkMode::Cow), false),
    ("fork+atfork", CreationPath::Fork(ForkMode::Cow), true),
    ("vfork+exec", CreationPath::VforkExec("/bin/tool"), false),
    ("posix_spawn", CreationPath::Spawn("/bin/tool"), false),
    ("xproc", CreationPath::Xproc("/bin/tool"), false),
];

/// One path's tally over the trials of one (threads, hold probability) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PathCell {
    /// Trials whose child met `EDEADLK` on some lock.
    pub deadlocks: u32,
    /// Trials whose creation call returned an error.
    pub refused: u32,
}

/// One trial of one path: a fresh parent whose worker `i` holds its lock
/// iff `holds[i]`, a child of it made by `path`, and the child's attempt
/// on every lock it has. `Ok(true)` is a child that deadlocked, `Err`
/// the creation call's refusal.
fn trial(holds: &[bool], (_, path, atfork): (&str, CreationPath, bool)) -> KResult<bool> {
    let mut os = Os::boot(OsConfig::default());
    let parent = os.kernel.allocate_process(os.init, "mt").expect("alloc");
    for (i, &held) in holds.iter().enumerate() {
        let name = [sync::names::MALLOC_ARENA, sync::names::STDIO, sync::names::APP][i % 3];
        let lock = os.kernel.register_lock(parent, name).expect("lock");
        let tid = os.kernel.spawn_thread(parent).expect("thread");
        if held {
            os.kernel.lock_acquire(parent, tid, lock).expect("acquire");
        }
        if atfork {
            let reg = AtforkRegistration { token: i as u64, lock: Some(lock) };
            os.kernel.process_mut(parent).expect("parent").atfork.register(reg);
        }
    }
    let child = os.create(parent, path)?;
    let c = os.kernel.process(child).expect("child");
    let main = c.main_tid();
    let locks: Vec<_> = c.locks.iter().map(|l| l.id).collect();
    let mut deadlocked = false;
    for lock in locks {
        match os.kernel.lock_acquire(child, main, lock) {
            Err(Errno::Edeadlk) => deadlocked = true,
            Ok(()) => os.kernel.lock_release(child, main, lock).expect("release"),
            Err(e) => panic!("unexpected lock error {e}"),
        }
    }
    Ok(deadlocked)
}

/// Runs `trials` trials over parents with `threads` workers, each holding
/// its lock with probability `hold_prob`; every path sees the same parents.
/// Entry `i` is `PATHS[i]`'s tally.
pub(crate) fn run_cell(threads: u32, hold_prob: f64, trials: u32, seed: u64) -> [PathCell; 5] {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cells = [PathCell::default(); 5];
    for _ in 0..trials {
        let holds: Vec<bool> = (0..threads).map(|_| rng.gen_bool(hold_prob)).collect();
        for (cell, path) in cells.iter_mut().zip(PATHS) {
            match trial(&holds, path) {
                Ok(deadlocked) => cell.deadlocks += u32::from(deadlocked),
                Err(_) => cell.refused += 1,
            }
        }
    }
    cells
}

/// Runs the grid and formats the table: one row per cell and path.
pub fn run(thread_counts: &[u32], hold_probs: &[f64], trials: u32) -> TableData {
    let mut t = TableData::new(
        "tab_thread_safety",
        "what a child finds of locks its parent's other threads held, per creation path",
        &["threads", "hold_prob", "trials", "path", "deadlock_rate", "refused_rate"],
    );
    let rate = |n: u32| format!("{:.2}", n as f64 / trials as f64);
    let mut seed = 9000;
    for &n in thread_counts {
        for &p in hold_probs {
            seed += 1;
            for ((name, ..), c) in PATHS.iter().zip(run_cell(n, p, trials, seed)) {
                t.push_row(vec![
                    n.to_string(),
                    format!("{p:.2}"),
                    trials.to_string(),
                    name.to_string(),
                    rate(c.deadlocks),
                    rate(c.refused),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_path_gives_its_verdict_for_every_hold_pattern() {
        for pattern in 0u32..8 {
            let holds: Vec<bool> = (0..3).map(|i| pattern & (1 << i) != 0).collect();
            let held = pattern != 0;
            let verdicts = PATHS.map(|path| trial(&holds, path));
            assert_eq!(verdicts[0], Ok(held), "fork deadlocks iff a worker held: {holds:?}");
            let atfork = if held { Err(Errno::Ebusy) } else { Ok(false) };
            assert_eq!(verdicts[1], atfork, "fork+atfork refuses iff a worker held: {holds:?}");
            for ((name, ..), v) in PATHS.iter().zip(&verdicts).skip(2) {
                assert_eq!(*v, Ok(false), "{name} child takes every lock: {holds:?}");
            }
        }
    }

    #[test]
    fn a_cell_tallies_each_path() {
        let clean = PathCell::default();
        let all = |deadlocks, refused| PathCell { deadlocks, refused };
        assert_eq!(run_cell(4, 1.0, 5, 2), [all(5, 0), all(0, 5), clean, clean, clean]);
        assert_eq!(run_cell(0, 1.0, 5, 1), [clean; 5]);
        assert_eq!(run_cell(4, 0.0, 5, 3), [clean; 5]);
    }

    #[test]
    fn deadlock_rate_grows_with_threads() {
        let few = run_cell(1, 0.3, 40, 3)[0].deadlocks;
        let many = run_cell(16, 0.3, 40, 3)[0].deadlocks;
        assert!(many > few, "{many} vs {few}");
    }
}
