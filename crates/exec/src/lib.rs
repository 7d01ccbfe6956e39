//! # fpr-exec — program images, loader, ASLR, and exec semantics
//!
//! The "other half" of process creation: building a fresh process image.
//! [`loader::load`] performs O(image-size) work regardless of how big any
//! existing process is — the property that makes spawn-style APIs flat in
//! the paper's Figure 1 — and [`exec::execve`] implements the POSIX state
//! transitions (close-on-exec sweep, signal-handler reset, thread
//! collapse) that undo most of what fork copied.

#![warn(missing_docs)]

pub mod aslr;
pub mod cache;
pub mod exec;
pub mod image;
pub mod loader;

pub use aslr::{randomize, shared_bits};
pub use cache::ImageCache;
pub use exec::{effective_file_id, execve, execve_args, reset_pcb, Env};
pub use image::{Image, ImageRegistry};
pub use loader::load;
