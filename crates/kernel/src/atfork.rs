//! `pthread_atfork` handlers — the workaround that proves the problem.
//!
//! POSIX's answer to fork's thread-unsafety: libraries register
//! prepare/parent/child hooks so fork can acquire every lock before the
//! snapshot and release it on both sides. The paper's critique, which the
//! model makes testable: coverage is opt-in per library, ordering across
//! libraries is fragile, and one unregistered lock re-creates the
//! deadlock. Handlers are identified by tokens; execution is recorded in
//! an event log the tests assert on.

use crate::sync::LockId;

/// One registered atfork triple. `lock` names the lock this registration
/// protects (if any), which lets the fork implementation actually
/// acquire/release it around the snapshot like glibc's malloc does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtforkRegistration {
    /// Token identifying the registering library (for logs/audits).
    pub token: u64,
    /// The lock the prepare handler acquires and both sides release.
    pub lock: Option<LockId>,
}

/// Ordered atfork registrations of one process.
///
/// POSIX ordering: `prepare` handlers run in **reverse** registration
/// order; `parent`/`child` handlers run in registration order.
#[derive(Debug, Clone, Default)]
pub struct AtforkTable {
    regs: Vec<AtforkRegistration>,
}

/// A phase of atfork execution, for the event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtforkPhase {
    /// Before the snapshot, in the parent.
    Prepare,
    /// After the snapshot, in the parent.
    Parent,
    /// After the snapshot, in the child.
    Child,
}

impl AtforkTable {
    /// Creates an empty table.
    pub fn new() -> AtforkTable {
        AtforkTable::default()
    }

    /// Registers a handler triple.
    pub fn register(&mut self, reg: AtforkRegistration) {
        self.regs.push(reg);
    }

    /// Registrations in `prepare` order (reverse of registration).
    pub fn prepare_order(&self) -> Vec<AtforkRegistration> {
        self.regs.iter().rev().copied().collect()
    }

    /// Registrations in `parent`/`child` order (registration order).
    pub fn completion_order(&self) -> Vec<AtforkRegistration> {
        self.regs.clone()
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True if no handlers are registered.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(token: u64, lock: Option<u32>) -> AtforkRegistration {
        AtforkRegistration {
            token,
            lock: lock.map(LockId),
        }
    }

    #[test]
    fn prepare_is_reverse_completion_is_forward() {
        let mut t = AtforkTable::new();
        t.register(reg(1, None));
        t.register(reg(2, None));
        t.register(reg(3, None));
        let prep: Vec<u64> = t.prepare_order().iter().map(|r| r.token).collect();
        let comp: Vec<u64> = t.completion_order().iter().map(|r| r.token).collect();
        assert_eq!(prep, vec![3, 2, 1]);
        assert_eq!(comp, vec![1, 2, 3]);
    }

    #[test]
    fn len_counts_registrations() {
        let mut t = AtforkTable::new();
        assert!(t.is_empty());
        t.register(reg(1, Some(7)));
        t.register(reg(2, None));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
