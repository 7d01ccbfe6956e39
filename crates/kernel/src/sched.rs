//! A round-robin scheduler over simulated threads.
//!
//! [`Scheduler`] is a deterministic global queue; it gives the examples
//! and the fork-scaling experiment a stable notion of "which threads are
//! on CPUs right now", which feeds the TLB-shootdown cost (a fork must
//! interrupt every CPU running the parent). It is deliberately untouched
//! by the SMP work — its answers feed simulated costs, so any
//! restructuring would change every experiment's byte-exact output.

use crate::pid::{Pid, Tid};
use std::collections::VecDeque;

/// A runnable entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Owning process.
    pub pid: Pid,
    /// Thread within it.
    pub tid: Tid,
}

/// Round-robin run queue with a fixed number of CPUs.
#[derive(Debug)]
pub struct Scheduler {
    cpus: Vec<Option<Task>>,
    queue: VecDeque<Task>,
}

impl Scheduler {
    /// Creates a scheduler with `ncpus` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `ncpus` is zero.
    pub(crate) fn new(ncpus: u32) -> Scheduler {
        assert!(ncpus > 0, "need at least one CPU");
        Scheduler {
            cpus: vec![None; ncpus as usize],
            queue: VecDeque::new(),
        }
    }

    /// Adds a task to the tail of the run queue.
    pub(crate) fn enqueue(&mut self, t: Task) {
        self.queue.push_back(t);
    }

    /// Removes a task wherever it is (exit, block).
    pub fn remove(&mut self, t: Task) {
        self.queue.retain(|q| *q != t);
        for slot in &mut self.cpus {
            if *slot == Some(t) {
                *slot = None;
            }
        }
    }

    /// Removes every task of a process.
    pub(crate) fn remove_process(&mut self, pid: Pid) {
        self.queue.retain(|q| q.pid != pid);
        for slot in &mut self.cpus {
            if slot.map(|t| t.pid == pid).unwrap_or(false) {
                *slot = None;
            }
        }
    }

    /// One scheduling round: every CPU preempts its task (requeueing it)
    /// and takes the next queued task. Returns the tasks now on CPU.
    pub fn tick(&mut self) -> Vec<Task> {
        for slot in &mut self.cpus {
            if let Some(t) = slot.take() {
                self.queue.push_back(t);
            }
        }
        for slot in &mut self.cpus {
            *slot = self.queue.pop_front();
        }
        self.running()
    }

    /// Tasks currently on CPUs.
    pub(crate) fn running(&self) -> Vec<Task> {
        self.cpus.iter().filter_map(|s| *s).collect()
    }

    /// Number of CPUs currently running threads of `pid` — the shootdown
    /// fan-out for that process's address space.
    pub(crate) fn cpus_running(&self, pid: Pid) -> u32 {
        self.cpus
            .iter()
            .filter(|s| s.map(|t| t.pid == pid).unwrap_or(false))
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(pid: u32, tid: u64) -> Task {
        Task {
            pid: Pid(pid),
            tid: Tid(tid),
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = Scheduler::new(1);
        s.enqueue(t(1, 1));
        s.enqueue(t(2, 2));
        assert_eq!(s.tick(), vec![t(1, 1)]);
        assert_eq!(s.tick(), vec![t(2, 2)]);
        assert_eq!(s.tick(), vec![t(1, 1)]);
    }

    #[test]
    fn multi_cpu_fills_all_slots() {
        let mut s = Scheduler::new(2);
        for i in 1..=3 {
            s.enqueue(t(i, i as u64));
        }
        let running = s.tick();
        assert_eq!(running.len(), 2);
        assert!(s.tick().contains(&t(3, 3)), "the third thread was queued");
    }

    #[test]
    fn cpus_running_counts_per_process() {
        let mut s = Scheduler::new(4);
        s.enqueue(t(1, 1));
        s.enqueue(t(1, 2));
        s.enqueue(t(2, 3));
        s.tick();
        assert_eq!(s.cpus_running(Pid(1)), 2);
        assert_eq!(s.cpus_running(Pid(2)), 1);
        assert_eq!(s.cpus_running(Pid(9)), 0);
    }

    #[test]
    fn remove_process_clears_everywhere() {
        let mut s = Scheduler::new(2);
        s.enqueue(t(1, 1));
        s.enqueue(t(1, 2));
        s.enqueue(t(1, 3));
        s.tick();
        s.remove_process(Pid(1));
        assert_eq!(s.running().len(), 0);
        assert!(s.tick().is_empty(), "nothing left queued either");
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_panics() {
        Scheduler::new(0);
    }
}
