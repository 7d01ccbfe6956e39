//! # fpr-mem — memory substrate for the *fork() in the road* reproduction
//!
//! This crate implements the machine-level memory model the process
//! simulator runs on: physical frames with COW reference counts, a
//! four-level radix page table, VMA lists with the full zoo of fork-era
//! mapping policy (`MAP_SHARED`/`MAP_PRIVATE`, `MADV_DONTFORK`,
//! `MADV_WIPEONFORK`), demand paging, copy-on-write breaks, TLB-shootdown
//! accounting, and Linux-style overcommit policies.
//!
//! Every operation both *does the structural work* (so wall-clock scales
//! the way a kernel's would) and charges a deterministic cycle cost
//! ([`cost::CostModel`]), so experiments report machine-independent
//! latencies.
//!
//! The crate's centrepiece is [`address_space::AddressSpace::fork_from`],
//! which reproduces the O(memory) duplication cost at the heart of the
//! paper's Figure 1.

#![warn(missing_docs)]

pub mod addr;
pub mod address_space;
pub mod buddy;
pub mod cost;
pub mod error;
pub mod fault;
pub mod overcommit;
pub mod page_table;
pub mod phys;
pub mod pte;
pub mod swap;
pub mod tlb;
pub mod vma;

pub use addr::{Pfn, Vpn, HUGE_PAGES, HUGE_PAGE_SIZE, PAGE_SIZE};
pub use address_space::{AddressSpace, AsStats, ForkMode};
pub use cost::{CostModel, Cycles, CYCLES_PER_US};
pub use error::{MemError, MemResult};
pub use fault::FaultOutcome;
pub use overcommit::{CommitAccount, OvercommitPolicy};
pub use phys::{PhysMemory, PressureLevel, SharedFramePool, ThpStats, Watermarks};
pub use pte::{Pte, PteFlags};
pub use swap::{SwapDevice, SwapStats};
pub use tlb::{TlbBus, TlbModel};
pub use vma::{Backing, ForkPolicy, Prot, Share, VmArea, VmaKind};
