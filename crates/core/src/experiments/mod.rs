//! Experiment drivers: one module per figure/table of the evaluation.
//!
//! Every driver returns a [`fpr_trace::FigureData`] or
//! [`fpr_trace::TableData`]; the `fpr-bench` catalogue prints and persists
//! them, and the in-crate tests pin each experiment's required *shape*
//! (who wins, by what factor, where crossovers fall).

pub mod aslr;
pub mod breakdown;
pub mod cow;
pub mod fig1;
pub mod forkbomb;
pub mod odf_storm;
pub mod overcommit;
pub mod pressure;
pub mod robustness;
pub mod scaling;
pub mod service;
pub mod smp;
pub mod smp_faults;
pub mod spawn_actions;
pub mod spawn_fastpath;
pub mod stdio;
pub mod threads;
pub mod vma_sweep;
