//! The process control block.
//!
//! A [`Process`] aggregates every piece of state POSIX says fork must
//! duplicate (or deliberately not duplicate): the address space, descriptor
//! table, signal state, threads and their locks, buffered user streams,
//! credentials, limits, working directory and umask. The sheer width of
//! this struct *is* the paper's "fork is no longer simple" argument,
//! rendered as a type.

use crate::atfork::AtforkTable;
use crate::cred::Credentials;
use crate::fdtable::FdTable;
use crate::pid::{Pid, Tid};
use crate::rlimit::RlimitSet;
use crate::signal::SignalState;
use crate::stdio::UserStream;
use crate::sync::LockTable;
use crate::thread::{Thread, ThreadState};
use crate::vfs::Ino;
use fpr_mem::AddressSpace;

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Alive (at least one live thread).
    Running,
    /// Exited, awaiting reaping by the parent.
    Zombie(i32),
}

/// Address-space layout summary recorded at exec/spawn time (filled in by
/// the loader; `fpr_exec::shared_bits` and the security experiment, E8,
/// read its bases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutInfo {
    /// Base VPN of the text segment.
    pub text_base: u64,
    /// Base VPN of the heap.
    pub heap_base: u64,
    /// Base VPN (top) of the main stack.
    pub stack_base: u64,
    /// Base VPN of the mmap arena.
    pub mmap_base: u64,
    /// Seed value actually used (for the shared-entropy audit).
    pub aslr_seed: u64,
}

/// Why/how the process's address space is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceRef {
    /// Owns its address space (the normal case).
    Owned,
    /// Borrowing the parent's space until exec or exit (`vfork`).
    BorrowedFrom(Pid),
}

/// A process control block.
#[derive(Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Command name (comm).
    pub name: String,
    /// Lifecycle state.
    pub state: ProcState,
    /// The address space; `None` while borrowed away is not modelled —
    /// instead a vfork child stores [`SpaceRef::BorrowedFrom`] and an empty
    /// placeholder here.
    pub aspace: AddressSpace,
    /// Whether `aspace` is real or borrowed.
    pub space_ref: SpaceRef,
    /// Descriptor table.
    pub fds: FdTable,
    /// Signal dispositions, mask, pending set.
    pub signals: SignalState,
    /// Threads (index 0 is the main thread).
    pub threads: Vec<Thread>,
    /// Userspace locks (allocator, stdio, app).
    pub locks: LockTable,
    /// Buffered user streams (stdio emulation).
    pub streams: Vec<UserStream>,
    /// Credentials.
    pub cred: Credentials,
    /// Resource limits.
    pub rlimits: RlimitSet,
    /// Working directory inode.
    pub cwd: Ino,
    /// File-mode creation mask.
    pub umask: u16,
    /// Layout summary from the last exec (ASLR audit input).
    pub layout: LayoutInfo,
    /// `pthread_atfork` registrations (userspace state, copied by fork,
    /// cleared by exec).
    pub atfork: AtforkTable,
    /// Process group (inherited by fork, reset by setsid).
    pub pgid: crate::pgroup::Pgid,
    /// Session (inherited by fork, reset by setsid).
    pub sid: crate::pgroup::Sid,
    /// Program arguments of the current image.
    pub argv: Vec<String>,
    /// Environment variables of the current image.
    pub envp: std::collections::BTreeMap<String, String>,
    /// Children yet to be reaped or reparented.
    pub children: Vec<Pid>,
    /// Set while a vfork child holds this (parent) process parked.
    pub vfork_children: Vec<Pid>,
    /// True if this process was terminated by the OOM killer.
    pub oom_killed: bool,
    /// OOM badness adjustment, Linux-style: added to the badness score in
    /// pages; [`OOM_SCORE_ADJ_MIN`] makes the process unkillable (used for
    /// warm-pool children that are pure cache and reclaimed by shrinkers
    /// instead).
    pub oom_score_adj: i64,
}

/// `oom_score_adj` value that exempts a process from the OOM killer.
pub const OOM_SCORE_ADJ_MIN: i64 = -1000;

impl Process {
    /// Creates a fresh process shell; the kernel fills in pid/ppid/fds.
    pub(crate) fn new(pid: Pid, ppid: Pid, name: impl Into<String>, main_tid: Tid, cwd: Ino) -> Process {
        Process {
            pid,
            ppid,
            name: name.into(),
            state: ProcState::Running,
            aspace: AddressSpace::new(),
            space_ref: SpaceRef::Owned,
            fds: FdTable::new(),
            signals: SignalState::new(),
            threads: vec![Thread::new(main_tid)],
            locks: LockTable::new(),
            streams: Vec::new(),
            cred: Credentials::root(),
            rlimits: RlimitSet::default(),
            cwd,
            umask: 0o022,
            layout: LayoutInfo::default(),
            atfork: AtforkTable::new(),
            pgid: crate::pgroup::Pgid(ppid.0),
            sid: crate::pgroup::Sid(ppid.0),
            argv: Vec::new(),
            envp: std::collections::BTreeMap::new(),
            children: Vec::new(),
            vfork_children: Vec::new(),
            oom_killed: false,
            oom_score_adj: 0,
        }
    }

    /// The main thread's id.
    pub fn main_tid(&self) -> Tid {
        self.threads[0].tid
    }

    /// Finds a thread by id.
    pub fn thread(&self, tid: Tid) -> Option<&Thread> {
        self.threads.iter().find(|t| t.tid == tid)
    }

    /// Finds a thread mutably.
    pub(crate) fn thread_mut(&mut self, tid: Tid) -> Option<&mut Thread> {
        self.threads.iter_mut().find(|t| t.tid == tid)
    }

    /// Number of threads that can make progress.
    pub fn schedulable_threads(&self) -> u32 {
        self.threads.iter().filter(|t| t.is_schedulable()).count() as u32
    }

    /// True if the process is a zombie.
    pub fn is_zombie(&self) -> bool {
        matches!(self.state, ProcState::Zombie(_))
    }

    /// Total bytes sitting unflushed in user stream buffers — the data a
    /// fork would duplicate.
    pub fn unflushed_bytes(&self) -> usize {
        self.streams.iter().map(|s| s.pending()).sum()
    }

    /// Parks every thread (used on the vfork parent).
    pub(crate) fn park_all_threads(&mut self) {
        for t in &mut self.threads {
            if t.is_schedulable() {
                t.state = ThreadState::VforkParked;
            }
        }
    }

    /// Unparks threads parked by [`Process::park_all_threads`].
    pub(crate) fn unpark_all_threads(&mut self) {
        for t in &mut self.threads {
            if t.state == ThreadState::VforkParked {
                t.state = ThreadState::Runnable;
            }
        }
    }

    /// Convenience: resident pages of the owned address space.
    pub fn resident_pages(&self) -> u64 {
        self.aspace.resident_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Process {
        Process::new(Pid(2), Pid(1), "test", Tid(10), Ino(1))
    }

    #[test]
    fn fresh_process_shape() {
        let p = p();
        assert_eq!(p.main_tid(), Tid(10));
        assert_eq!(p.schedulable_threads(), 1);
        assert!(!p.is_zombie());
        assert_eq!(p.unflushed_bytes(), 0);
        assert_eq!(p.space_ref, SpaceRef::Owned);
    }

    #[test]
    fn park_unpark_roundtrip() {
        let mut p = p();
        p.threads.push(Thread::new(Tid(11)));
        p.park_all_threads();
        assert_eq!(p.schedulable_threads(), 0);
        p.unpark_all_threads();
        assert_eq!(p.schedulable_threads(), 2);
    }

    #[test]
    fn parked_blocked_thread_stays_blocked() {
        let mut p = p();
        p.threads.push(Thread::new(Tid(11)));
        p.threads[1].state = ThreadState::BlockedOnLock(crate::sync::LockId(0));
        p.park_all_threads();
        p.unpark_all_threads();
        assert_eq!(
            p.threads[1].state,
            ThreadState::BlockedOnLock(crate::sync::LockId(0))
        );
        assert_eq!(p.schedulable_threads(), 1);
    }

    #[test]
    fn unflushed_counts_all_streams() {
        use crate::fdtable::Fd;
        use crate::stdio::{BufMode, UserStream};
        let mut p = p();
        let mut s1 = UserStream::new(Fd(1), BufMode::FullyBuffered);
        s1.write(b"abc");
        let mut s2 = UserStream::new(Fd(2), BufMode::FullyBuffered);
        s2.write(b"wxyz");
        p.streams = vec![s1, s2];
        assert_eq!(p.unflushed_bytes(), 7);
    }
}
