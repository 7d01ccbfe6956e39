//! E8b: fork bombs and their containment.
//!
//! fork's zero-argument simplicity makes the classic `:(){ :|:& };:`
//! one-liner possible; the kernel's defence is `RLIMIT_NPROC`. The
//! experiment detonates a breadth-first fork bomb under different limits
//! and records how many processes exist when the bomb fizzles.

use crate::os::{Os, OsConfig};
use fpr_kernel::{Errno, MachineConfig, Pid, Resource, Rlimit};
use fpr_trace::TableData;
use std::collections::VecDeque;

/// Result of one detonation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BombOutcome {
    /// The `RLIMIT_NPROC` soft limit in force (`u64::MAX` = unlimited).
    pub nproc_limit: u64,
    /// Processes successfully created by the bomb.
    pub created: u64,
    /// The errno that finally stopped it.
    pub stopped_by: String,
}

/// Detonates a BFS fork bomb from a fresh process under `limit`.
///
/// `max_pids` bounds the experiment when the limit is unlimited.
pub fn detonate(limit: u64, max_pids: u32) -> BombOutcome {
    let mut os = Os::boot(OsConfig {
        machine: MachineConfig {
            max_pids,
            ..MachineConfig::default()
        },
        ..Default::default()
    });
    let root = os.kernel.allocate_process(os.init, "bomb").expect("alloc");
    os.kernel
        .process_mut(root)
        .expect("proc")
        .rlimits
        .set(Resource::Nproc, Rlimit::both(limit));

    let mut queue: VecDeque<Pid> = VecDeque::from([root]);
    let mut created = 0u64;
    let stopped_by;
    'outer: loop {
        let Some(p) = queue.pop_front() else {
            stopped_by = "queue drained".to_string();
            break 'outer;
        };
        // Each bomb process forks twice (": | :").
        for _ in 0..2 {
            match os.fork(p) {
                Ok(c) => {
                    created += 1;
                    queue.push_back(c);
                }
                Err(Errno::Eagain) => {
                    stopped_by = "EAGAIN".to_string();
                    break 'outer;
                }
                Err(e) => {
                    stopped_by = format!("{e}");
                    break 'outer;
                }
            }
        }
        queue.push_back(p);
    }
    BombOutcome {
        nproc_limit: limit,
        created,
        stopped_by,
    }
}

/// Runs the limit sweep.
pub fn run(limits: &[u64], max_pids: u32) -> TableData {
    let mut t = TableData::new(
        "tab_forkbomb",
        "fork-bomb containment by RLIMIT_NPROC",
        &["nproc_limit", "processes_created", "stopped_by"],
    );
    for &l in limits {
        let o = detonate(l, max_pids);
        let shown = if l == u64::MAX {
            "unlimited".to_string()
        } else {
            l.to_string()
        };
        t.push_row(vec![shown, o.created.to_string(), o.stopped_by]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_bounds_the_bomb() {
        let o = detonate(16, 4096);
        // init + root already count 2 toward uid 0's nproc.
        assert!(o.created <= 16, "created {}", o.created);
        assert_eq!(o.stopped_by, "EAGAIN");
    }

    #[test]
    fn bigger_limit_bigger_bomb() {
        let small = detonate(16, 4096);
        let big = detonate(128, 4096);
        assert!(big.created > small.created * 4);
    }

    /// Regression: the EAGAIN that stops a fork bomb must itself be
    /// transactional. The failing fork leaves the kernel at the pre-call
    /// baseline with invariants intact, and reaping one bomb child makes
    /// the very next fork succeed — no half-created process wedges the
    /// limit.
    #[test]
    fn the_fizzle_is_clean() {
        let mut os = Os::boot(OsConfig::default());
        let root = os.kernel.allocate_process(os.init, "bomb").expect("alloc");
        os.kernel
            .process_mut(root)
            .expect("proc")
            .rlimits
            .set(Resource::Nproc, Rlimit::both(8));
        let mut children = Vec::new();
        let base = loop {
            let base = os.kernel.baseline();
            match os.fork(root) {
                Ok(c) => children.push(c),
                Err(e) => {
                    assert_eq!(e, Errno::Eagain, "containment errno");
                    break base;
                }
            }
            assert!(children.len() < 64, "limit never enforced");
        };
        if let Err(v) = os.kernel.leak_check(&base) {
            panic!("EAGAIN fork left state behind:\n  {}", v.join("\n  "));
        }
        if let Err(v) = os.kernel.check_invariants() {
            panic!("EAGAIN fork broke invariants:\n  {}", v.join("\n  "));
        }
        // Reap one child: the limit frees and fork works again.
        let victim = children.pop().expect("bomb made children");
        os.reap(root, victim).expect("exit and reap");
        os.fork(root).expect("fork succeeds once a slot frees");
    }

    #[test]
    fn unlimited_hits_pid_exhaustion() {
        let o = detonate(u64::MAX, 256);
        assert_eq!(o.stopped_by, "EAGAIN", "PID allocator is the last line");
        assert!(o.created >= 250, "should approach max_pids: {}", o.created);
    }
}
