//! # fpr-api — the five process-creation APIs
//!
//! The paper's subject matter, implemented side by side over the same
//! simulated kernel:
//!
//! * [`fork::fork`] — duplicate everything (O(parent), with COW or eager
//!   copying);
//! * [`vfork::vfork`] — borrow the parent's memory and park it (O(1),
//!   dangerous);
//! * [`clone::clone`] — fork parameterised by `CLONE_*` flags;
//! * [`spawn::posix_spawn`] — create-and-exec with a closed vocabulary of
//!   file actions and attributes (O(image));
//! * [`xproc::ProcessBuilder`] — the paper's recommended cross-process
//!   API: an empty child populated explicitly (O(image + grants),
//!   inherit-nothing by default).
//!
//! [`compare`] encodes the capability matrix contrasting them (E7).

#![warn(missing_docs)]

pub mod batch;
pub mod clone;
pub mod compare;
pub mod fastpath;
pub mod fork;
pub mod retry;
pub mod spawn;
pub mod vfork;
pub mod xproc;

pub use batch::{fork_exec, vfork_exec};
pub use clone::{clone, CloneFlags, CloneResult};
pub use compare::render_matrix;
pub use fastpath::{spawn_fast, WarmPool};
pub use fork::{fork, fork_from_thread, fork_on_demand, ForkStats};
pub use retry::{retry_with_backoff, RetryStats};
pub use spawn::{posix_spawn, FileAction, SpawnAttrs};
pub use vfork::vfork;
pub use xproc::{FdSource, MemOp, ProcessBuilder, Spawned};
