//! # fpr-audit — fork-safety and security auditing
//!
//! Turns the paper's qualitative warnings into checkable predicates:
//!
//! * [`fork_safety`] inspects a live process and reports exactly why a
//!   fork *right now* would deadlock (orphaned locks), corrupt output
//!   (unflushed streams), race signals, or simply cost too much;
//! * [`security`] quantifies what a child inherited that it shouldn't
//!   have — leaked descriptors, ambient privilege, and shared ASLR
//!   layouts (the zygote problem, experiment E8).

#![warn(missing_docs)]

pub mod fork_safety;
pub mod report;
pub mod security;

pub use fork_safety::{audit_fork_safety, audit_main_thread};
pub use report::{Finding, Report, Severity};
pub use security::{audit_inheritance, zygote_entropy, ZygoteReport, MAX_LAYOUT_BITS};
