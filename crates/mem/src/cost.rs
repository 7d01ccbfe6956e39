//! Calibrated cycle-cost model for memory-management operations.
//!
//! The paper's Figure 1 measures wall-clock latency on a real kernel. The
//! simulator instead *performs* the same structural work (walking and
//! copying page tables, cloning VMA lists, breaking COW mappings) and
//! charges each primitive operation a fixed cycle cost. The per-operation
//! constants are calibrated against published microarchitectural numbers
//! (cache-line copy bandwidth, IPI latency, page-fault entry cost) so that
//! the *shape* of every experiment — who wins, by what factor, where the
//! crossover falls — matches the paper, while remaining deterministic and
//! machine-independent.
//!
//! All costs are expressed in CPU cycles of a nominal 3 GHz core, so
//! 3_000 cycles ≈ 1 µs.


/// Nominal simulated clock frequency in cycles per microsecond.
pub const CYCLES_PER_US: u64 = 3_000;

/// Per-primitive cycle costs charged by the memory subsystem.
///
/// The defaults model a contemporary x86-64 server; individual fields can
/// be overridden to run ablations (e.g. zeroing `tlb_shootdown_per_cpu`
/// isolates the cost of remote TLB invalidation).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Copying one leaf PTE during fork (read, write, COW-mark both sides).
    pub pte_copy: u64,
    /// Allocating and wiring one intermediate page-table node.
    pub pt_node_alloc: u64,
    /// Cloning one VMA record (allocation + list insertion + accounting).
    pub vma_clone: u64,
    /// Kernel entry/exit for a page fault (trap, save state, return).
    pub fault_entry: u64,
    /// Copying one 4 KiB page of data (COW break or eager fork copy).
    pub page_copy: u64,
    /// Zeroing one 4 KiB page (demand-zero fill).
    pub page_zero: u64,
    /// Allocating one physical frame: the one price of every frame any
    /// cell takes, out of its reserved block or off its parked frames
    /// ([`crate::phys`], "One machine").
    pub frame_alloc: u64,
    /// Freeing one physical frame.
    pub frame_free: u64,
    /// Fixed cost of initiating a TLB shootdown (local flush + setup).
    pub tlb_shootdown_base: u64,
    /// Incremental cost per remote CPU that must acknowledge the shootdown IPI.
    pub tlb_shootdown_per_cpu: u64,
    /// Single-CPU local TLB invalidation of one entry.
    pub tlb_invlpg: u64,
    /// Syscall entry/exit overhead.
    pub syscall: u64,
    /// Reading one page of a file image into a frame (page-cache hit).
    pub file_read_page: u64,
    /// Sharing one leaf page-table subtree at fork: copy one 8-byte
    /// subtree pointer and bump a refcount (on-demand fork fast path).
    pub pt_subtree_share: u64,
    /// Duplicating one open file descriptor at fork (slot copy + open-file
    /// refcount bump).
    pub fd_clone: u64,
    /// Per-page increment of a batched ranged TLB flush: one INVLPG-class
    /// invalidation broadcast inside a single shootdown IPI, instead of
    /// one IPI per page.
    pub tlb_range_flush_page: u64,
    /// Reserving one slot in the swap-device bitmap (find-first-zero scan
    /// plus the bookkeeping write).
    pub swap_slot_alloc: u64,
    /// Writing one 4 KiB page out to the swap device. Writes are queued
    /// behind the device's write-back cache, so this is cheaper than the
    /// synchronous read-back.
    pub swap_out_page: u64,
    /// Reading one 4 KiB page back from the swap device on a major fault
    /// (fast-NVMe-class latency; this is what makes thrashing expensive).
    pub swap_in_page: u64,
    /// Collapsing 512 resident small PTEs into one 2 MiB huge leaf:
    /// verify contiguity, rewrite the leaf slot, free the old leaf table.
    pub pt_promote: u64,
    /// Splitting one huge leaf back into 512 small PTEs: allocate a leaf
    /// table and write every entry (Linux's `split_huge_pmd` analogue).
    pub pt_demote: u64,
    /// Installing one 2 MiB huge leaf mapping (one PTE write covering a
    /// whole block — the per-page map cost is what it avoids).
    pub huge_map: u64,
    /// COW-marking or COW-flipping one huge leaf at fork / write-back:
    /// a single PTE flip instead of 512.
    pub huge_cow: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            pte_copy: 12,
            pt_node_alloc: 400,
            vma_clone: 300,
            fault_entry: 1_200,
            page_copy: 800,
            page_zero: 450,
            frame_alloc: 120,
            frame_free: 90,
            tlb_shootdown_base: 1_000,
            tlb_shootdown_per_cpu: 1_800,
            tlb_invlpg: 120,
            syscall: 350,
            file_read_page: 1_000,
            pt_subtree_share: 4,
            fd_clone: 150,
            tlb_range_flush_page: 40,
            swap_slot_alloc: 150,
            swap_out_page: 24_000,
            swap_in_page: 30_000,
            pt_promote: 600,
            pt_demote: 900,
            huge_map: 450,
            huge_cow: 30,
        }
    }
}

impl CostModel {
    /// Returns a model with every cost zeroed — useful in tests that only
    /// check structural behaviour.
    pub fn free() -> Self {
        CostModel {
            pte_copy: 0,
            pt_node_alloc: 0,
            vma_clone: 0,
            fault_entry: 0,
            page_copy: 0,
            page_zero: 0,
            frame_alloc: 0,
            frame_free: 0,
            tlb_shootdown_base: 0,
            tlb_shootdown_per_cpu: 0,
            tlb_invlpg: 0,
            syscall: 0,
            file_read_page: 0,
            pt_subtree_share: 0,
            fd_clone: 0,
            tlb_range_flush_page: 0,
            swap_slot_alloc: 0,
            swap_out_page: 0,
            swap_in_page: 0,
            pt_promote: 0,
            pt_demote: 0,
            huge_map: 0,
            huge_cow: 0,
        }
    }
}

/// A monotonically increasing cycle accumulator.
///
/// Every memory and kernel operation charges cycles here; experiment
/// harnesses read [`Cycles::total`] before and after an operation to obtain
/// its deterministic simulated latency.
#[derive(Debug, Default, Clone)]
pub struct Cycles {
    total: u64,
}

impl Cycles {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` cycles. Also advances this OS thread's virtual clock
    /// ([`fpr_trace::vclock`]) by the same amount, so a multithreaded
    /// driver sees every thread's simulated work as elapsed virtual
    /// time; single-threaded callers never read that clock.
    #[inline]
    pub fn charge(&mut self, n: u64) {
        self.total = self.total.saturating_add(n);
        fpr_trace::vclock::advance(n);
    }

    /// Adds `each` cycles `n` times over, in one charge: what a loop
    /// charging `each` per item costs for a batch of `n`. The product
    /// saturates like the sum.
    #[inline]
    pub(crate) fn charge_n(&mut self, each: u64, n: u64) {
        self.charge(each.saturating_mul(n));
    }

    /// Returns the cycles accumulated so far.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_nonzero() {
        let m = CostModel::default();
        assert!(m.pte_copy > 0);
        assert!(
            m.page_copy > m.pte_copy,
            "copying data must dominate copying a PTE"
        );
        assert!(m.fault_entry > m.syscall, "faults are dearer than syscalls");
    }

    #[test]
    fn free_model_is_zero() {
        let m = CostModel::free();
        assert_eq!(m.pte_copy + m.page_copy + m.fault_entry + m.syscall, 0);
    }

    #[test]
    fn cycles_accumulate() {
        let mut c = Cycles::new();
        c.charge(CYCLES_PER_US);
        c.charge(CYCLES_PER_US * 2);
        assert_eq!(c.total(), 3 * CYCLES_PER_US);
    }

    #[test]
    fn cycles_saturate() {
        let mut c = Cycles::new();
        c.charge(u64::MAX);
        c.charge(10);
        assert_eq!(c.total(), u64::MAX);
        // A batched charge saturates in its product too.
        let mut c = Cycles::new();
        c.charge_n(u64::MAX / 2, 3);
        assert_eq!(c.total(), u64::MAX);
        let mut c = Cycles::new();
        c.charge_n(12, 512);
        assert_eq!(c.total(), 12 * 512);
    }
}
