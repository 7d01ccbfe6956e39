//! # forkroad — a reproduction of *"A fork() in the road"* (HotOS 2019)
//!
//! Facade crate re-exporting the whole system:
//!
//! * [`mem`] — frames, page tables, VMAs, COW, TLB, overcommit;
//! * [`kernel`] — processes, descriptors, VFS, pipes, signals, threads;
//! * [`exec`] — images, loader, ASLR, execve;
//! * [`api`] — fork, vfork, clone, posix_spawn, the cross-process builder;
//! * [`audit`] — ASLR layout entropy shared across sibling processes;
//! * [`faults`] — deterministic fault injection (`FaultPlan`, fail-point sweeps);
//! * [`trace`] — workloads and experiment records;
//! * [`core`] — the [`core::Os`] facade, the workload [`kit`] and the
//!   experiment drivers built from it.
//!
//! Start with [`core::Os::boot`]; see `examples/quickstart.rs`.

#![warn(missing_docs)]

pub use forkroad_core as core;
pub use fpr_api as api;
pub use fpr_audit as audit;
pub use fpr_exec as exec;
pub use fpr_faults as faults;
pub use fpr_kernel as kernel;
pub use fpr_mem as mem;
pub use fpr_trace as trace;

pub use forkroad_core::kit;
pub use forkroad_core::{Os, OsConfig};
