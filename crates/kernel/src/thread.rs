//! Threads of a simulated process.

use crate::pid::Tid;
use crate::sync::LockId;

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Currently on a CPU.
    Running,
    /// Blocked waiting for a lock.
    BlockedOnLock(LockId),
    /// Blocked in `wait()` for a child.
    BlockedInWait,
    /// Suspended because a `vfork` child borrowed the address space.
    VforkParked,
    /// Finished.
    Exited,
}

/// One thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Machine-wide thread id.
    pub tid: Tid,
    /// Scheduling state.
    pub state: ThreadState,
    /// Locks currently held (mirror of [`crate::sync::LockTable`] owners,
    /// kept for O(1) audit queries).
    pub holding: Vec<LockId>,
}

impl Thread {
    /// Creates a runnable thread.
    pub(crate) fn new(tid: Tid) -> Thread {
        Thread {
            tid,
            state: ThreadState::Runnable,
            holding: Vec::new(),
        }
    }

    /// True if the thread can make progress.
    pub(crate) fn is_schedulable(&self) -> bool {
        matches!(self.state, ThreadState::Runnable | ThreadState::Running)
    }

    /// Records lock acquisition.
    pub(crate) fn note_acquired(&mut self, l: LockId) {
        self.holding.push(l);
    }

    /// Records lock release.
    pub(crate) fn note_released(&mut self, l: LockId) {
        if let Some(i) = self.holding.iter().position(|h| *h == l) {
            self.holding.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulable_states() {
        let mut t = Thread::new(Tid(1));
        assert!(t.is_schedulable());
        t.state = ThreadState::BlockedOnLock(LockId(0));
        assert!(!t.is_schedulable());
        t.state = ThreadState::VforkParked;
        assert!(!t.is_schedulable());
        t.state = ThreadState::Running;
        assert!(t.is_schedulable());
    }

    #[test]
    fn lock_bookkeeping() {
        let mut t = Thread::new(Tid(1));
        t.note_acquired(LockId(3));
        t.note_acquired(LockId(5));
        assert_eq!(t.holding.len(), 2);
        t.note_released(LockId(3));
        assert_eq!(t.holding, vec![LockId(5)]);
        t.note_released(LockId(99)); // harmless
        assert_eq!(t.holding.len(), 1);
    }
}
