//! The process control block.
//!
//! A [`Process`] aggregates every piece of state POSIX says fork must
//! duplicate (or deliberately not duplicate): the memory it runs in,
//! descriptor table, signal state, threads, credentials, limits, working
//! directory and umask. The sheer width of this struct *is* the paper's
//! "fork is no longer simple" argument, rendered as a type.
//!
//! The userspace state a program keeps in its memory — its locks, stream
//! buffers and `pthread_atfork` registrations — lives in that memory's
//! [`Memory`], not beside it: whatever gives a process memory (a fork's
//! copy, exec's fresh image, a vfork's loan) gives it those tables too.

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

/// One process's memory: the address space and the userspace tables that
/// live in it.
#[derive(Debug, Default)]
pub struct Memory {
    /// The address space.
    pub aspace: AddressSpace,
    /// Userspace locks (allocator, stdio, app).
    pub locks: LockTable,
    /// Buffered user streams (stdio emulation).
    pub streams: Vec<UserStream>,
    /// `pthread_atfork` registrations.
    pub atfork: AtforkTable,
}

impl Memory {
    /// An empty space, with transparent huge pages if `thp`, and empty
    /// tables.
    pub(crate) fn new(thp: bool) -> Memory {
        let mut m = Memory::default();
        m.aspace.set_thp(thp);
        m
    }
}

/// The memory a process runs in.
///
/// Every PCB is boxed in its process-table slot, and a process holds one
/// `Space`; boxing the `Memory` as well would cost a host allocation per
/// process created for no space saved.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Space {
    /// Its own (the normal case).
    Own(Memory),
    /// The lender's, on loan until exec or exit (`vfork`, `clone(CLONE_VM)`):
    /// a borrower holds no memory of its own.
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
    /// The memory it runs in: its own, or a lender's.
    pub space: Space,
    /// Descriptor table.
    pub fds: FdTable,
    /// Signal dispositions, mask, pending set.
    pub signals: SignalState,
    /// Threads (index 0 is the main thread).
    pub threads: Vec<Thread>,
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
    /// Its memory is empty, with transparent huge pages if `thp`.
    pub(crate) fn new(pid: Pid, ppid: Pid, name: impl Into<String>, main_tid: Tid, cwd: Ino, thp: bool) -> Process {
        Process {
            pid,
            ppid,
            name: name.into(),
            state: ProcState::Running,
            space: Space::Own(Memory::new(thp)),
            fds: FdTable::new(),
            signals: SignalState::new(),
            threads: vec![Thread::new(main_tid)],
            cred: Credentials::root(),
            rlimits: RlimitSet::default(),
            cwd,
            umask: 0o022,
            layout: LayoutInfo::default(),
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

    /// Its own memory; `None` for a borrower.
    pub(crate) fn memory(&self) -> Option<&Memory> {
        match &self.space {
            Space::Own(m) => Some(m),
            Space::BorrowedFrom(_) => None,
        }
    }

    /// [`Process::memory`], mutably.
    pub(crate) fn memory_mut(&mut self) -> Option<&mut Memory> {
        match &mut self.space {
            Space::Own(m) => Some(m),
            Space::BorrowedFrom(_) => None,
        }
    }

    /// Total bytes sitting unflushed in the stream buffers of its own
    /// memory — the data a fork would duplicate.
    pub fn unflushed_bytes(&self) -> usize {
        self.memory().map_or(0, |m| m.streams.iter().map(|s| s.pending()).sum())
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

    /// Convenience: resident pages of its own address space.
    pub fn resident_pages(&self) -> u64 {
        self.memory().map_or(0, |m| m.aspace.resident_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Process {
        Process::new(Pid(2), Pid(1), "test", Tid(10), Ino(1), false)
    }

    #[test]
    fn fresh_process_shape() {
        let p = p();
        assert_eq!(p.main_tid(), Tid(10));
        assert_eq!(p.schedulable_threads(), 1);
        assert!(!p.is_zombie());
        assert_eq!(p.unflushed_bytes(), 0);
        assert!(matches!(p.space, Space::Own(_)));
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
        let Space::Own(m) = &mut p.space else { unreachable!("a fresh process owns its memory") };
        m.streams = vec![s1, s2];
        assert_eq!(p.unflushed_bytes(), 7);
    }
}
