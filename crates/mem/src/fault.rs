//! Page-fault handling: demand fill and copy-on-write breaks.
//!
//! After a COW fork, the parent's and child's first write to each shared
//! page takes a fault, allocates a frame, copies 4 KiB, and shoots down
//! stale translations. The paper's scaling argument is that this *deferred*
//! cost can exceed an eager copy once the workload touches enough of its
//! memory — experiment E3 sweeps the touch fraction to find the crossover.

use crate::addr::{Pfn, Vpn, HUGE_PAGES};
use crate::address_space::AddressSpace;
use crate::cost::Cycles;
use crate::error::{MemError, MemResult};
use crate::page_table::Slot;
use crate::phys::PhysMemory;
use crate::pte::{Pte, PteFlags};
use crate::tlb::TlbModel;
use crate::vma::Share;
use fpr_faults::FaultSite;
use fpr_trace::metrics;
use fpr_trace::sink;
use fpr_trace::{Phase, TraceEvent};

/// What the fault handler did to satisfy an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// No fault: the translation was already valid for the access.
    Hit,
    /// A frame was allocated and filled (zero or file content).
    DemandFill,
    /// A COW break that copied the frame.
    CowCopy,
    /// A COW break resolved by reclaiming sole ownership (refcount 1).
    CowReuse,
    /// A swapped-out page was read back from the swap device.
    SwapIn,
}

/// What a store leaves set in the entry it went through.
const WRITTEN: PteFlags = PteFlags::DIRTY.union(PteFlags::ACCESSED);

impl AddressSpace {
    /// Fills a run: the empty entries of the small-PTE node covering
    /// `vpn` from `vpn` — which the caller's lookup found empty, in `slot`
    /// if that found one — up to `end`, the end of `vpn`'s mapping or the
    /// end of the node if either comes first, with frames demand-zeroed or
    /// read from the mapping's file. It goes past the entries there are and
    /// stops short of a swap entry, which swaps in on its own. Returns the
    /// PTE it gave `vpn` and the page it stopped at; a fault is a run of
    /// one page, a populate one a node at a time. `written` says the fault
    /// was a store, which leaves the new entry dirty.
    ///
    /// Once per run: the VMA lookup, the unshare of a node an on-demand
    /// fork shares — installing into it would mutate the shared node — and
    /// the walk to the node, which allocates it and its path where mapping
    /// one page (`map_at`) would: once the first entry's frame is taken and
    /// its `PtNodeAlloc` crossed. Per entry, in
    /// a fault's order: the [`fpr_faults::FaultSite::FrameAlloc`]
    /// crossing, the frame and its charges, the `PtNodeAlloc` crossing, the
    /// word, and a `demand_fill` instant if a sink listens. Then, once
    /// again, the node's maps and counts, the counters, and a promotion if
    /// the run completed a 2 MiB block. A refusal at a page — a crossing,
    /// or the pool dry — leaves the pages before it mapped (the prefix
    /// rule) and gives its frame back, if it had one.
    pub(crate) fn demand_fill(
        &mut self,
        vpn: Vpn,
        end: u64,
        slot: Option<Slot>,
        written: bool,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<(Pte, Vpn)> {
        let vma = self.vma_at(vpn).ok_or(MemError::NotMapped)?;
        let base = vpn.huge_base().0;
        let end = end.min(vma.end().0).min(base + HUGE_PAGES);
        let mut flags = PteFlags::USER | PteFlags::ACCESSED;
        if vma.prot.write {
            flags = flags | PteFlags::WRITABLE;
        }
        if !vma.prot.exec {
            flags = flags | PteFlags::NX;
        }
        if vma.share == Share::Shared {
            flags = flags | PteFlags::SHARED;
        }
        let vma = vma.clone();
        // The node swap of an unshare preserves every existing translation
        // bit-for-bit, so no TLB invalidation is needed (the TLB caches leaf
        // translations, not subtree pointers, at this model's granularity).
        if let Some(slot) = slot {
            self.unshare_at(slot, phys, cycles)?;
        }
        let listening = sink::is_active();
        let mut taken = 0;
        let mut entry = |vpn: Vpn, phys: &mut PhysMemory, cycles: &mut Cycles| {
            let pfn = phys.fill_frame(vma.initial_content(vpn), cycles)?;
            taken += 1;
            if fpr_faults::cross(FaultSite::PtNodeAlloc).is_err() {
                // The frame was never mapped; give it back or the refusal
                // leaks it.
                phys.dec_ref(pfn, cycles).expect("frame allocated above");
                return Err(MemError::OutOfMemory);
            }
            Ok(Pte::new(pfn, flags))
        };
        let filled = entry(vpn, phys, cycles).and_then(|pte| {
            let at = self.pt.small_node_at(vpn, slot, cycles, phys.cost()).inspect_err(|_| {
                phys.dec_ref(pte.pfn, cycles).expect("frame allocated above");
            })?;
            let mut first = Some(pte);
            let run = vpn.pt_index(0)..(end - base) as usize;
            let (stop, pages, refused) = self.pt.fill_run(at, run, |j| {
                let pte = match first.take() {
                    Some(pte) => pte,
                    None => entry(Vpn(base + j as u64), phys, cycles)?,
                };
                if listening {
                    sink::instant("demand_fill", "mem", cycles.total());
                }
                Ok(pte)
            });
            Ok((pte, at, stop, pages, refused))
        });
        phys.count_allocs(taken);
        let (pte, at, stop, pages, refused) = filled?;
        self.stats.demand_faults += pages;
        metrics::add("mem.fault.demand_fill", pages);
        // A refusal came before an empty entry of the node: no block was
        // completed.
        refused?;
        self.finish_fill(vpn, at, written, phys, cycles);
        Ok((pte, Vpn(base + stop as u64)))
    }

    /// The tail of a fault that made the page at `vpn` resident, in the
    /// slot `at`. The fill may have completed a 2 MiB block: collapse it
    /// while the fault is already paid for (khugepaged-in-the-fault-path);
    /// promotion keeps every pfn, so the PTE the fault returns stays valid.
    /// Then, for a store, mark the entry — or the block it now is — dirty.
    fn finish_fill(
        &mut self,
        vpn: Vpn,
        at: Slot,
        written: bool,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) {
        let promoted = self.thp && self.try_promote(vpn, phys, cycles);
        if written {
            // Promotion rewires the slot: look the block up.
            let at = if promoted { self.pt.find(vpn).expect("just promoted") } else { at };
            self.mark_dirty_at(at, vpn);
        }
    }

    /// Reads the swapped-out page at `vpn` — the entry `pte`, found in
    /// `slot` — back into a fresh frame and returns its new PTE, rederiving
    /// permissions from the VMA like a demand fill. Crosses
    /// [`fpr_faults::FaultSite::SwapIn`] (an injected device I/O error
    /// surfaces as [`MemError::SwapIo`]) and `FrameAlloc` before the page
    /// table changes, so on `Err` the swap entry — and the slot behind it —
    /// are intact and the access can be retried.
    pub(crate) fn swap_in(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        slot: Slot,
        written: bool,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<Pte> {
        debug_assert!(pte.is_swap());
        let vma = self.vma_at(vpn).ok_or(MemError::NotMapped)?;
        let mut flags = PteFlags::USER | PteFlags::ACCESSED;
        if vma.prot.write {
            flags = flags | PteFlags::WRITABLE;
        }
        if !vma.prot.exec {
            flags = flags | PteFlags::NX;
        }
        // The entry may sit in a leaf an on-demand fork still shares;
        // the PTE rewrite below must not mutate the shared node.
        self.unshare_at(slot, phys, cycles)?;
        let device_slot = pte.swap_slot();
        let pfn = phys.swap_in_frame(device_slot, cycles)?;
        let new = Pte::new(pfn, flags);
        self.pt.update_at(slot, vpn, new).expect("swap entry translated");
        phys.swap_mut().release([device_slot]).expect("slot read above");
        self.swapped -= 1;
        sink::instant("swap_in", "mem", cycles.total());
        self.finish_fill(vpn, slot, written, phys, cycles);
        Ok(new)
    }

    /// Simulated load from the page at `vpn`. Returns the page's logical
    /// content and what the fault handler had to do.
    pub fn read(
        &mut self,
        vpn: Vpn,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<(u64, FaultOutcome)> {
        let vma = self.vma_at(vpn).ok_or(MemError::NotMapped)?;
        if !vma.prot.read {
            return Err(MemError::Protection);
        }
        match self.lookup(vpn) {
            (Some(slot), Some(pte)) if pte.is_swap() => {
                cycles.charge(phys.cost().fault_entry);
                let new = self.swap_in(vpn, pte, slot, false, phys, cycles)?;
                Ok((phys.content(new.pfn)?, FaultOutcome::SwapIn))
            }
            (_, Some(pte)) => Ok((phys.content(pte.pfn)?, FaultOutcome::Hit)),
            (slot, None) => {
                cycles.charge(phys.cost().fault_entry);
                let (pte, _) = self.demand_fill(vpn, vpn.0 + 1, slot, false, phys, cycles)?;
                Ok((phys.content(pte.pfn)?, FaultOutcome::DemandFill))
            }
        }
    }

    /// Simulated store of `value` to the page at `vpn`, breaking COW as
    /// needed. Returns what the fault handler had to do.
    ///
    /// One descent of the page table serves the whole fault: the lookup
    /// yields the coordinates of the slot holding the translation, and the
    /// sharing test, the unshare, the COW break's rewrite, a fill into a
    /// node that is already there and the dirty mark all go by them. Only a
    /// fill that has to allocate its path walks again, and a huge block
    /// that has to be split.
    pub fn write(
        &mut self,
        vpn: Vpn,
        value: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
        tlb: &mut TlbModel,
        cpus_running: u32,
    ) -> MemResult<FaultOutcome> {
        let vma = self.vma_at(vpn).ok_or(MemError::NotMapped)?;
        if !vma.prot.write {
            return Err(MemError::Protection);
        }
        let private = vma.share == Share::Private;
        let fault_entry = phys.cost().fault_entry;
        let (slot, pte) = match self.lookup(vpn) {
            (Some(slot), Some(pte)) => (slot, pte),
            (slot, _) => {
                cycles.charge(fault_entry);
                let (pte, _) = self.demand_fill(vpn, vpn.0 + 1, slot, true, phys, cycles)?;
                phys.write_content(pte.pfn, value)?;
                return Ok(FaultOutcome::DemandFill);
            }
        };
        if self.pt.shared_at(slot) {
            // Structure fault: the write landed in a leaf subtree still
            // shared by an on-demand fork. Take a fault, privatize the
            // 512-entry node (the deferred page-table copy), and shoot
            // down stale translations — the other space's writable
            // mappings of this subtree were COW-marked at share time, and
            // our own subtree pointer just changed. The copy holds the
            // entries the original did, so `pte` stands, and the write
            // resolves below (usually as a second, COW-break fault:
            // on-demand fork pays two faults on first touch).
            cycles.charge(fault_entry);
            self.unshare_at(slot, phys, cycles)?;
            tlb.shootdown(cpus_running, cycles, phys.cost());
        }
        if pte.is_swap() {
            cycles.charge(fault_entry);
            let new = self.swap_in(vpn, pte, slot, true, phys, cycles)?;
            phys.write_content(new.pfn, value)?;
            return Ok(FaultOutcome::SwapIn);
        }
        if pte.is_writable() {
            phys.write_content(pte.pfn, value)?;
            self.mark_dirty_at(slot, vpn);
            return Ok(FaultOutcome::Hit);
        }
        // A private page whose frame someone else still holds breaks
        // COW whether or not it carries the mark: fork leaves a page
        // that `mprotect` had made read-only unmarked, and a later
        // upgrade must not let either side write the shared frame.
        if pte.is_cow() || (private && !Self::sole_owner(self.entry_behind(slot, vpn, pte).1, phys)) {
            cycles.charge(fault_entry);
            let (slot, pte) = if pte.is_huge() {
                match self.huge_cow_break(slot, vpn, value, phys, cycles, tlb, cpus_running)? {
                    Some(outcome) => return Ok(outcome),
                    // The block was just split; look the small page up
                    // and break COW on it alone below.
                    None => match self.lookup(vpn) {
                        (Some(slot), Some(pte)) => (slot, pte),
                        _ => unreachable!("demoted in place"),
                    },
                }
            } else {
                (slot, pte)
            };
            let (pfn, outcome) = if phys.refs(pte.pfn)? == 1 {
                // Sole owner: reclaim the frame in place.
                phys.write_content(pte.pfn, value)?;
                self.stats.cow_reuses += 1;
                (pte.pfn, FaultOutcome::CowReuse)
            } else {
                let new_pfn = phys.break_cow(pte.pfn, value, cycles)?;
                self.stats.cow_copies += 1;
                metrics::incr("mem.fault.cow_copy");
                (new_pfn, FaultOutcome::CowCopy)
            };
            let flags = pte.flags.minus(PteFlags::COW).union(PteFlags::WRITABLE | PteFlags::DIRTY);
            self.pt.update_at(slot, vpn, Pte::new(pfn, flags)).expect("translated above");
            if sink::is_active() {
                sink::emit(
                    TraceEvent::new("cow_break", "mem", Phase::Instant, cycles.total()).arg(
                        "outcome",
                        if outcome == FaultOutcome::CowCopy {
                            "copy"
                        } else {
                            "reuse"
                        },
                    ),
                );
            }
            // The stale read-only translation may be cached on any CPU
            // running this space.
            tlb.shootdown(cpus_running, cycles, phys.cost());
            return Ok(outcome);
        }
        // Present, not writable, nobody to break from — but the VMA permits
        // writes: an `mprotect` upgrade applied lazily. Take the fault and
        // set the bit (real kernels do exactly this). Permissions are
        // block-granular for a huge mapping, so the whole block upgrades
        // with one PTE write.
        cycles.charge(fault_entry);
        let (at, mut entry) = self.entry_behind(slot, vpn, pte);
        entry.flags = entry.flags.union(PteFlags::WRITABLE | PteFlags::DIRTY);
        self.pt.update_at(slot, at, entry).expect("translated above");
        tlb.invalidate_local(cycles, phys.cost());
        phys.write_content(pte.pfn, value)?;
        Ok(FaultOutcome::Hit)
    }

    /// COW break inside the huge block that `slot` holds for `vpn`. When
    /// this space is the sole owner of the whole 512-frame run, the block
    /// flips writable in place — one PTE write
    /// ([`crate::cost::CostModel::huge_cow`]), the huge analogue of
    /// `CowReuse`, and the write completes here. Otherwise the run is
    /// still shared with a fork relative, so the block is split (crossing
    /// [`fpr_faults::FaultSite::PtDemote`]; an injected failure fails the
    /// write cleanly with the block intact) and `None` is returned for the
    /// per-page COW machinery to finish the job.
    #[allow(clippy::too_many_arguments)]
    fn huge_cow_break(
        &mut self,
        slot: Slot,
        vpn: Vpn,
        value: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
        tlb: &mut TlbModel,
        cpus_running: u32,
    ) -> MemResult<Option<FaultOutcome>> {
        let base = vpn.huge_base();
        let block = self.pt.block_at(slot, vpn).expect("caller translated a huge PTE");
        let sole = Self::sole_owner(block, phys);
        // The block may sit in a huge directory an on-demand fork still
        // shares; both the flip and the split mutate the node.
        self.unshare_at(slot, phys, cycles)?;
        if sole {
            let mut new = block;
            new.flags = new
                .flags
                .minus(PteFlags::COW)
                .union(PteFlags::WRITABLE | PteFlags::DIRTY);
            self.pt.update_at(slot, base, new).expect("block translated above");
            cycles.charge(phys.cost().huge_cow);
            self.stats.cow_reuses += 1;
            tlb.shootdown(cpus_running, cycles, phys.cost());
            phys.write_content(Pfn(block.pfn.0 + vpn.huge_offset()), value)?;
            return Ok(Some(FaultOutcome::CowReuse));
        }
        self.pt.demote_block(vpn, cycles, phys.cost())?;
        phys.note_thp_demoted();
        Ok(None)
    }

    /// The table entry behind the translation `pte` that `slot` holds for
    /// `vpn`, and the page it sits at: the page's own entry, or — hardware
    /// keeps permissions and dirtiness per TLB entry — the whole block's.
    fn entry_behind(&self, slot: Slot, vpn: Vpn, pte: Pte) -> (Vpn, Pte) {
        if pte.is_huge() {
            (vpn.huge_base(), self.pt.block_at(slot, vpn).expect("a huge PTE has a block"))
        } else {
            (vpn, pte)
        }
    }

    /// True if the table entry `entry` holds the only reference to its
    /// frame — for a huge block, to every frame of its run.
    fn sole_owner(entry: Pte, phys: &PhysMemory) -> bool {
        let run = if entry.is_huge() { HUGE_PAGES } else { 1 };
        (0..run).all(|k| phys.refs(Pfn(entry.pfn.0 + k)) == Ok(1))
    }

    /// Records a store in the present translation that `slot` holds for
    /// `vpn`.
    fn mark_dirty_at(&mut self, slot: Slot, vpn: Vpn) {
        let Some(pte) = self.pt.pte_at(slot, vpn).filter(|pte| pte.is_present()) else {
            return;
        };
        let (at, mut entry) = self.entry_behind(slot, vpn, pte);
        if !entry.flags.contains(WRITTEN) {
            entry.flags = entry.flags.union(WRITTEN);
            self.pt.update_at(slot, at, entry).expect("translated above");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address_space::ForkMode;
    use crate::cost::CostModel;
    use crate::vma::{Prot, VmArea, VmaKind};

    fn world(frames: u64) -> (PhysMemory, Cycles, TlbModel) {
        (
            PhysMemory::new(frames, CostModel::default()),
            Cycles::new(),
            TlbModel::new(),
        )
    }

    fn space_with_heap(pages: u64, phys: &mut PhysMemory, cy: &mut Cycles) -> AddressSpace {
        let mut a = AddressSpace::new();
        a.mmap(
            VmArea::anon(Vpn(0), pages, Prot::RW, VmaKind::Heap),
            phys,
            cy,
        )
        .unwrap();
        a
    }

    #[test]
    fn first_write_is_demand_fill_then_hit() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut a = space_with_heap(4, &mut phys, &mut cy);
        assert_eq!(
            a.write(Vpn(1), 11, &mut phys, &mut cy, &mut tlb, 1),
            Ok(FaultOutcome::DemandFill)
        );
        assert_eq!(
            a.write(Vpn(1), 12, &mut phys, &mut cy, &mut tlb, 1),
            Ok(FaultOutcome::Hit)
        );
        assert_eq!(a.read(Vpn(1), &mut phys, &mut cy).unwrap().0, 12);
        assert_eq!(a.stats.demand_faults, 1);
    }

    #[test]
    fn read_of_untouched_page_is_zero() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = space_with_heap(4, &mut phys, &mut cy);
        let (v, o) = a.read(Vpn(2), &mut phys, &mut cy).unwrap();
        assert_eq!((v, o), (0, FaultOutcome::DemandFill));
    }

    #[test]
    fn write_to_readonly_is_protection_error() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(
            VmArea::anon(Vpn(0), 2, Prot::R, VmaKind::Text),
            &mut phys,
            &mut cy,
        )
        .unwrap();
        assert_eq!(
            a.write(Vpn(0), 1, &mut phys, &mut cy, &mut tlb, 1),
            Err(MemError::Protection)
        );
    }

    #[test]
    fn access_outside_vma_is_not_mapped() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut a = space_with_heap(2, &mut phys, &mut cy);
        assert_eq!(a.read(Vpn(5), &mut phys, &mut cy), Err(MemError::NotMapped));
        assert_eq!(
            a.write(Vpn(5), 0, &mut phys, &mut cy, &mut tlb, 1),
            Err(MemError::NotMapped)
        );
    }

    #[test]
    fn cow_break_copies_when_shared() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut parent = space_with_heap(4, &mut phys, &mut cy);
        parent
            .write(Vpn(0), 7, &mut phys, &mut cy, &mut tlb, 1)
            .unwrap();
        let mut child =
            AddressSpace::fork_from(&mut parent, ForkMode::Cow, &mut phys, &mut cy, &mut tlb, 1)
                .unwrap();
        // Both see 7; one frame shared.
        assert_eq!(phys.used_frames(), 1);
        assert_eq!(child.read(Vpn(0), &mut phys, &mut cy).unwrap().0, 7);
        // Child writes: COW copy.
        assert_eq!(
            child.write(Vpn(0), 9, &mut phys, &mut cy, &mut tlb, 1),
            Ok(FaultOutcome::CowCopy)
        );
        assert_eq!(phys.used_frames(), 2);
        assert_eq!(child.read(Vpn(0), &mut phys, &mut cy).unwrap().0, 9);
        assert_eq!(
            parent.read(Vpn(0), &mut phys, &mut cy).unwrap().0,
            7,
            "parent unaffected"
        );
        // Parent now sole owner: its write reclaims in place.
        assert_eq!(
            parent.write(Vpn(0), 8, &mut phys, &mut cy, &mut tlb, 1),
            Ok(FaultOutcome::CowReuse)
        );
        assert_eq!(phys.used_frames(), 2);
        child.destroy(&mut phys, &mut cy);
        parent.destroy(&mut phys, &mut cy);
        assert_eq!(phys.used_frames(), 0);
    }

    #[test]
    fn cow_break_charges_fault_and_copy_and_shootdown() {
        let (mut phys, mut cyc, mut tlb) = world(64);
        let mut parent = space_with_heap(1, &mut phys, &mut cyc);
        parent
            .write(Vpn(0), 1, &mut phys, &mut cyc, &mut tlb, 1)
            .unwrap();
        let mut child =
            AddressSpace::fork_from(&mut parent, ForkMode::Cow, &mut phys, &mut cyc, &mut tlb, 1)
                .unwrap();
        let cost = phys.cost().clone();
        let before = cyc.total();
        child
            .write(Vpn(0), 2, &mut phys, &mut cyc, &mut tlb, 4)
            .unwrap();
        let spent = cyc.total() - before;
        let expected = cost.fault_entry
            + cost.frame_alloc
            + cost.page_copy
            + cost.tlb_shootdown_base
            + 3 * cost.tlb_shootdown_per_cpu;
        assert_eq!(spent, expected);
    }

    #[test]
    fn shared_mapping_writes_propagate_after_fork() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut parent = AddressSpace::new();
        let mut v = VmArea::anon(Vpn(0), 2, Prot::RW, VmaKind::Mmap);
        v.share = Share::Shared;
        parent.mmap(v, &mut phys, &mut cy).unwrap();
        let mut child =
            AddressSpace::fork_from(&mut parent, ForkMode::Cow, &mut phys, &mut cy, &mut tlb, 1)
                .unwrap();
        parent
            .write(Vpn(0), 5, &mut phys, &mut cy, &mut tlb, 1)
            .unwrap();
        assert_eq!(
            child.read(Vpn(0), &mut phys, &mut cy).unwrap().0,
            5,
            "shared page aliases"
        );
        child
            .write(Vpn(0), 6, &mut phys, &mut cy, &mut tlb, 1)
            .unwrap();
        assert_eq!(parent.read(Vpn(0), &mut phys, &mut cy).unwrap().0, 6);
    }

    /// Found by `tests/proptest_reference.rs`: fork leaves a private page
    /// that `mprotect` made read-only without the COW mark, and the write
    /// after the protection came back used to land in the shared frame.
    #[test]
    fn write_after_mprotect_round_trip_still_breaks_cow() {
        for mode in [ForkMode::Cow, ForkMode::OnDemand, ForkMode::Eager] {
            let (mut phys, mut cy, mut tlb) = world(64);
            let mut parent = space_with_heap(4, &mut phys, &mut cy);
            parent.write(Vpn(1), 11, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            parent.mprotect(Vpn(0), 4, Prot::R, &mut cy, &mut phys, &mut tlb, 1).unwrap();
            let mut child =
                AddressSpace::fork_from(&mut parent, mode, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            for space in [&mut parent, &mut child] {
                space.mprotect(Vpn(0), 4, Prot::RW, &mut cy, &mut phys, &mut tlb, 1).unwrap();
            }
            child.write(Vpn(1), 22, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            assert_eq!(parent.read(Vpn(1), &mut phys, &mut cy).unwrap().0, 11, "{mode:?}");
            // The parent is the frame's only owner again: no second copy.
            let before = phys.used_frames();
            parent.write(Vpn(1), 33, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            assert_eq!(phys.used_frames(), before, "{mode:?}");
            assert_eq!(child.read(Vpn(1), &mut phys, &mut cy).unwrap().0, 22, "{mode:?}");
        }
    }
}
