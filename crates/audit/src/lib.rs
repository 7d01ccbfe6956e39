//! # fpr-audit — shared ASLR entropy
//!
//! [`security::zygote_entropy`] measures how many address-space layout
//! bits a set of sibling processes share: all of them for children forked
//! from one zygote, few for children spawned afresh (experiment E8).

#![warn(missing_docs)]

pub mod security;

pub use security::{zygote_entropy, ZygoteReport, MAX_LAYOUT_BITS};
