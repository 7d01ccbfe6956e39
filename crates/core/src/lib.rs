//! # forkroad-core — the *fork() in the road* reproduction, assembled
//!
//! Ties the substrates together behind one facade ([`os::Os`]), defines
//! the four moves every workload is made of once ([`kit`]: a world, a
//! request, a storm, an open loop) and ships the experiment drivers
//! ([`experiments`]) that regenerate every figure and table of the
//! paper's evaluation from them. See DESIGN.md for the paper → module map
//! and EXPERIMENTS.md for measured results.
//!
//! ## Quick start
//!
//! ```
//! use forkroad_core::os::{Os, OsConfig};
//! use fpr_api::SpawnAttrs;
//!
//! let mut os = Os::boot(OsConfig::default());
//! let init = os.init;
//! // The expensive way: duplicate init, then throw the copy away.
//! let forked = os.fork(init).unwrap();
//! os.exec(forked, "/bin/sh").unwrap();
//! // The cheap way: build the child directly.
//! let spawned = os.spawn(init, "/bin/sh", &[], &SpawnAttrs::default()).unwrap();
//! assert_eq!(os.kernel.process(spawned).unwrap().name, "sh");
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod kit;
pub mod os;
pub mod smp;

pub use os::{Os, OsConfig};
pub use smp::SmpOs;
