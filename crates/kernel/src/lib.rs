//! # fpr-kernel — the simulated kernel for the *fork() in the road*
//! reproduction
//!
//! Everything a process-creation API needs to exist on top of: a process
//! table with PID/TID allocation, per-process address spaces (from
//! [`fpr_mem`]), descriptor tables over a shared open-file-description
//! table, an in-memory VFS, pipes, user-space buffered streams, signals,
//! threads with owner-tracked locks, a round-robin scheduler, resource
//! limits, and an OOM killer.
//!
//! Deliberately, `fork` is **not** a method of [`kernel::Kernel`]. The
//! paper's thesis is that fork is an API choice layered over more basic
//! kernel operations — so the five creation APIs live in the `fpr-api`
//! crate and are each a sequence of the creation steps exported here
//! ([`kernel::Kernel::create_process`], [`kernel::Kernel::copy_space`],
//! [`kernel::Kernel::copy_fd_table`], [`kernel::Kernel::borrow_space`],
//! [`kernel::Kernel::dup_to`], …).

#![warn(missing_docs)]

pub mod atfork;
pub mod cred;
pub mod error;
pub mod fdtable;
pub mod file;
pub mod invariants;
pub mod io;
pub mod kernel;
pub mod lifecycle;
pub mod mm;
pub mod pgroup;
pub mod pid;
pub mod pipe;
pub mod procfs;
pub mod reclaim;
pub mod rlimit;
pub mod sched;
pub mod signal;
pub mod stdio;
pub mod sync;
pub mod task;
pub mod thread;
pub mod time;
pub mod timer;
pub mod vfs;

pub use atfork::{AtforkPhase, AtforkRegistration, AtforkTable};
pub use cred::{Caps, Credentials};
pub use error::{Errno, KResult};
pub use fdtable::{Fd, FdEntry, FdTable, STDIN, STDOUT};
pub use file::{FileObject, OfdId, OpenFlags};
pub use invariants::{KernelBaseline, Observed};
pub use io::ReadResult;
pub use kernel::{Kernel, MachineConfig, SmpShared};
pub use lifecycle::SIGBUS_EXIT_STATUS;
pub use mm::Madvice;
pub use pgroup::{Pgid, Sid};
pub use pid::{Pid, ShardedPidTable, Tid};
pub use reclaim::{ReclaimStats, Shrinker, ShrinkerHandle};
pub use rlimit::{Resource, Rlimit, RlimitSet};
pub use sched::{Scheduler, Task};
pub use signal::{Disposition, HandlerId, Sig, SignalState};
pub use stdio::{BufMode, UserStream};
pub use sync::{LockId, LockTable};
pub use task::{LayoutInfo, ProcState, Process, SpaceRef, OOM_SCORE_ADJ_MIN};
pub use thread::{Thread, ThreadState};
