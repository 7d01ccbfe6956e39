//! Owner-tracked in-process locks, for modelling fork's thread-safety
//! hazard.
//!
//! The paper's sharpest correctness argument: fork snapshots *memory* but
//! only duplicates the *calling thread*. Any lock held by another thread
//! at fork time is copied in its locked state into the child — where the
//! owning thread does not exist, so the lock can never be released. The
//! child deadlocks the first time it touches that lock. [`LockTable`]
//! records ownership so that a child's `lock_acquire` meets exactly this
//! situation as `EDEADLK`.

use crate::error::{Errno, KResult};
use crate::pid::Tid;

/// Identifier of a lock within one process (e.g. the malloc arena lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// One mutex with owner tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLock {
    /// Stable identifier.
    pub id: LockId,
    /// Human-readable role: e.g. "malloc-arena".
    pub name_id: u32,
    /// Current owner, if held.
    pub owner: Option<Tid>,
}

/// The set of userspace locks in one process image.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: Vec<SimLock>,
}

/// Well-known lock-name identifiers used by the examples and workloads.
pub mod names {
    /// The allocator arena lock — the classic fork-deadlock culprit.
    pub const MALLOC_ARENA: u32 = 1;
    /// A stdio stream lock.
    pub const STDIO: u32 = 2;
    /// An application lock.
    pub const APP: u32 = 3;
}

impl LockTable {
    /// Registers a lock and returns its id.
    pub(crate) fn register(&mut self, name_id: u32) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(SimLock {
            id,
            name_id,
            owner: None,
        });
        id
    }

    /// Acquires `lock` for `tid`.
    ///
    /// Fails with [`Errno::Edeadlk`] if `tid` already owns it (non-recursive)
    /// and [`Errno::Ebusy`] if another thread owns it (the caller decides
    /// whether that means blocking or deadlock).
    pub(crate) fn acquire(&mut self, lock: LockId, tid: Tid) -> KResult<()> {
        let l = self.locks.get_mut(lock.0 as usize).ok_or(Errno::Einval)?;
        match l.owner {
            None => {
                l.owner = Some(tid);
                Ok(())
            }
            Some(o) if o == tid => Err(Errno::Edeadlk),
            Some(_) => Err(Errno::Ebusy),
        }
    }

    /// Releases `lock`, which must be owned by `tid`.
    pub(crate) fn release(&mut self, lock: LockId, tid: Tid) -> KResult<()> {
        let l = self.locks.get_mut(lock.0 as usize).ok_or(Errno::Einval)?;
        match l.owner {
            Some(o) if o == tid => {
                l.owner = None;
                Ok(())
            }
            _ => Err(Errno::Eperm),
        }
    }

    /// Locks currently held by threads *other than* `survivor` — the set
    /// that becomes permanently stuck in a fork child where only
    /// `survivor` exists.
    pub fn orphaned_after_fork(&self, survivor: Tid) -> Vec<SimLock> {
        self.locks
            .iter()
            .filter(|l| l.owner.map(|o| o != survivor).unwrap_or(false))
            .copied()
            .collect()
    }

    /// Iterates over all locks.
    pub fn iter(&self) -> impl Iterator<Item = &SimLock> {
        self.locks.iter()
    }

    /// Gives every lock `from` holds to `to`, and returns them: fork's
    /// remap of the calling thread's holdings onto the child's main thread
    /// (not a synchronisation operation).
    pub(crate) fn reown(&mut self, from: Tid, to: Tid) -> Vec<LockId> {
        let held = self.locks.iter_mut().filter(|l| l.owner == Some(from));
        held.map(|l| { l.owner = Some(to); l.id }).collect()
    }

    /// Current owner of `lock`, if held.
    pub fn owner_of(&self, lock: LockId) -> Option<Tid> {
        self.locks.get(lock.0 as usize).and_then(|l| l.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut t = LockTable::default();
        let l = t.register(names::APP);
        t.acquire(l, Tid(1)).unwrap();
        assert_eq!(t.owner_of(l), Some(Tid(1)));
        t.release(l, Tid(1)).unwrap();
        assert_eq!(t.owner_of(l), None);
    }

    #[test]
    fn recursive_acquire_is_deadlock() {
        let mut t = LockTable::default();
        let l = t.register(names::APP);
        t.acquire(l, Tid(1)).unwrap();
        assert_eq!(t.acquire(l, Tid(1)), Err(Errno::Edeadlk));
    }

    #[test]
    fn contended_acquire_is_busy() {
        let mut t = LockTable::default();
        let l = t.register(names::MALLOC_ARENA);
        t.acquire(l, Tid(1)).unwrap();
        assert_eq!(t.acquire(l, Tid(2)), Err(Errno::Ebusy));
    }

    #[test]
    fn release_by_non_owner_is_eperm() {
        let mut t = LockTable::default();
        let l = t.register(names::APP);
        t.acquire(l, Tid(1)).unwrap();
        assert_eq!(t.release(l, Tid(2)), Err(Errno::Eperm));
        assert_eq!(t.release(l, Tid(1)), Ok(()));
        assert_eq!(t.release(l, Tid(1)), Err(Errno::Eperm), "already free");
    }

    #[test]
    fn orphaned_after_fork_finds_other_owners() {
        let mut t = LockTable::default();
        let a = t.register(names::MALLOC_ARENA);
        let b = t.register(names::STDIO);
        let c = t.register(names::APP);
        t.acquire(a, Tid(2)).unwrap(); // other thread: orphaned
        t.acquire(b, Tid(1)).unwrap(); // forking thread: survives
        let _ = c; // free: fine
        let orphans = t.orphaned_after_fork(Tid(1));
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].id, a);
        assert_eq!(orphans[0].name_id, names::MALLOC_ARENA);
    }
}
