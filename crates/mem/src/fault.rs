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
use crate::phys::PhysMemory;
use crate::pte::{Pte, PteFlags};
use crate::tlb::TlbModel;
use crate::vma::Share;
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

impl AddressSpace {
    /// Installs the initial frame for an untouched page (demand-zero or
    /// file fill) and returns its PTE.
    pub(crate) fn demand_fill(
        &mut self,
        vpn: Vpn,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<Pte> {
        let vma = self.vma_at(vpn).ok_or(MemError::NotMapped)?.clone();
        // An absent PTE can still sit inside a leaf subtree that an
        // on-demand fork shares with another space; installing it would
        // mutate the shared node. Privatize first. The node swap preserves
        // every existing translation bit-for-bit, so no TLB invalidation
        // is needed (the TLB caches leaf translations, not subtree
        // pointers, at this model's granularity).
        self.unshare_subtree(vpn, phys, cycles)?;
        let content = vma.initial_content(vpn);
        let pfn = if content == 0 {
            phys.alloc_zeroed(cycles)?
        } else {
            phys.alloc_filled(content, cycles)?
        };
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
        let pte = Pte::new(pfn, flags);
        let cost = phys.cost().clone();
        if let Err(e) = self.pt.map(vpn, pte, cycles, &cost) {
            // The freshly filled frame was never mapped; free it or the
            // failed fault leaks a frame.
            phys.dec_ref(pfn, cycles).expect("frame allocated above");
            return Err(e);
        }
        self.stats.demand_faults += 1;
        metrics::incr("mem.fault.demand_fill");
        sink::instant("demand_fill", "mem", cycles.total());
        // The fill may have completed a 2 MiB block; collapse it while
        // the fault is already paid for (khugepaed-in-the-fault-path).
        // Promotion keeps every pfn, so the returned PTE stays valid.
        if self.thp {
            self.try_promote(vpn, phys, cycles);
        }
        Ok(pte)
    }

    /// Reads the swapped-out page at `vpn` back into a fresh frame and
    /// returns its new PTE, rederiving permissions from the VMA like a
    /// demand fill. Crosses [`fpr_faults::FaultSite::SwapIn`] (an injected
    /// device I/O error surfaces as [`MemError::SwapIo`]) and
    /// `FrameAlloc` before the page table changes, so on `Err` the swap
    /// entry — and the slot behind it — are intact and the access can be
    /// retried.
    pub(crate) fn swap_in(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<Pte> {
        debug_assert!(pte.is_swap());
        let vma = self.vma_at(vpn).ok_or(MemError::NotMapped)?.clone();
        // The entry may sit in a leaf an on-demand fork still shares;
        // the PTE rewrite below must not mutate the shared node.
        self.unshare_subtree(vpn, phys, cycles)?;
        let slot = pte.swap_slot();
        let pfn = phys.swap_in_frame(slot, cycles)?;
        let mut flags = PteFlags::USER | PteFlags::ACCESSED;
        if vma.prot.write {
            flags = flags | PteFlags::WRITABLE;
        }
        if !vma.prot.exec {
            flags = flags | PteFlags::NX;
        }
        let new = Pte::new(pfn, flags);
        self.pt.update(vpn, new).expect("swap entry translated");
        phys.swap_mut().dec_ref(slot).expect("slot read above");
        self.swapped -= 1;
        metrics::incr("mem.fault.swap_in");
        sink::instant("swap_in", "mem", cycles.total());
        if self.thp {
            self.try_promote(vpn, phys, cycles);
        }
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
        match self.pt.translate(vpn) {
            Some(pte) if pte.is_swap() => {
                cycles.charge(phys.cost().fault_entry);
                let new = self.swap_in(vpn, pte, phys, cycles)?;
                Ok((phys.content(new.pfn)?, FaultOutcome::SwapIn))
            }
            Some(pte) => Ok((phys.content(pte.pfn)?, FaultOutcome::Hit)),
            None => {
                cycles.charge(phys.cost().fault_entry);
                let pte = self.demand_fill(vpn, phys, cycles)?;
                Ok((phys.content(pte.pfn)?, FaultOutcome::DemandFill))
            }
        }
    }

    /// Simulated store of `value` to the page at `vpn`, breaking COW as
    /// needed. Returns what the fault handler had to do.
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
        let cost = phys.cost().clone();
        if self.pt.translate(vpn).is_some() && self.subtree_shared(vpn) {
            // Structure fault: the write landed in a leaf subtree still
            // shared by an on-demand fork. Take a fault, privatize the
            // 512-entry node (the deferred page-table copy), and shoot
            // down stale translations — the other space's writable
            // mappings of this subtree were COW-marked at share time, and
            // our own subtree pointer just changed. The write then
            // resolves below (usually as a second, COW-break fault:
            // on-demand fork pays two faults on first touch).
            cycles.charge(cost.fault_entry);
            self.unshare_subtree(vpn, phys, cycles)?;
            tlb.shootdown(cpus_running, cycles, &cost);
        }
        match self.pt.translate(vpn) {
            None => {
                cycles.charge(cost.fault_entry);
                let pte = self.demand_fill(vpn, phys, cycles)?;
                phys.write_content(pte.pfn, value)?;
                self.mark_dirty(vpn);
                Ok(FaultOutcome::DemandFill)
            }
            Some(pte) if pte.is_swap() => {
                cycles.charge(cost.fault_entry);
                let new = self.swap_in(vpn, pte, phys, cycles)?;
                phys.write_content(new.pfn, value)?;
                self.mark_dirty(vpn);
                Ok(FaultOutcome::SwapIn)
            }
            Some(pte) if pte.is_writable() => {
                phys.write_content(pte.pfn, value)?;
                self.mark_dirty(vpn);
                Ok(FaultOutcome::Hit)
            }
            // A private page whose frame someone else still holds breaks
            // COW whether or not it carries the mark: fork leaves a page
            // that `mprotect` had made read-only unmarked, and a later
            // upgrade must not let either side write the shared frame.
            Some(pte) if pte.is_cow() || (private && !self.sole_owner(vpn, pte, phys)) => {
                cycles.charge(cost.fault_entry);
                let pte = if pte.is_huge() {
                    match self.huge_cow_break(vpn, value, phys, cycles, tlb, cpus_running)? {
                        Some(outcome) => return Ok(outcome),
                        // The block was just split; retranslate and break
                        // COW on this one small page below.
                        None => self.pt.translate(vpn).expect("demoted in place"),
                    }
                } else {
                    pte
                };
                let outcome = if phys.refs(pte.pfn)? == 1 {
                    // Sole owner: reclaim the frame in place.
                    let mut new = pte;
                    new.flags = new
                        .flags
                        .minus(PteFlags::COW)
                        .union(PteFlags::WRITABLE | PteFlags::DIRTY);
                    self.pt.update(vpn, new).expect("translated above");
                    self.stats.cow_reuses += 1;
                    metrics::incr("mem.fault.cow_reuse");
                    FaultOutcome::CowReuse
                } else {
                    let new_pfn = phys.copy_frame(pte.pfn, cycles)?;
                    phys.dec_ref(pte.pfn, cycles)?;
                    let mut new = Pte::new(new_pfn, pte.flags);
                    new.flags = new
                        .flags
                        .minus(PteFlags::COW)
                        .union(PteFlags::WRITABLE | PteFlags::DIRTY);
                    self.pt.update(vpn, new).expect("translated above");
                    self.stats.cow_copies += 1;
                    metrics::incr("mem.fault.cow_copy");
                    FaultOutcome::CowCopy
                };
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
                tlb.shootdown(cpus_running, cycles, &cost);
                let pte = self.pt.translate(vpn).expect("just updated");
                phys.write_content(pte.pfn, value)?;
                Ok(outcome)
            }
            Some(pte) => {
                // Present, not writable, nobody to break from — but the
                // VMA permits writes: an `mprotect` upgrade applied lazily.
                // Take the fault and set the bit (real kernels do exactly this).
                // Permissions are block-granular for a huge mapping, so
                // the whole block upgrades with one PTE write.
                cycles.charge(cost.fault_entry);
                if pte.is_huge() {
                    let base = vpn.huge_base();
                    let mut block = self.pt.huge_block(vpn).expect("translated above");
                    block.flags = block.flags.union(PteFlags::WRITABLE | PteFlags::DIRTY);
                    self.pt.update(base, block).expect("translated above");
                    tlb.invalidate_local(cycles, &cost);
                    phys.write_content(pte.pfn, value)?;
                    return Ok(FaultOutcome::Hit);
                }
                let mut new = pte;
                new.flags = new.flags.union(PteFlags::WRITABLE | PteFlags::DIRTY);
                self.pt.update(vpn, new).expect("translated above");
                tlb.invalidate_local(cycles, &cost);
                phys.write_content(new.pfn, value)?;
                Ok(FaultOutcome::Hit)
            }
        }
    }

    /// COW break inside a huge block. When this space is the sole owner of
    /// the whole 512-frame run, the block flips writable in place — one
    /// PTE write ([`crate::cost::CostModel::huge_cow`]), the huge analogue
    /// of `CowReuse`, and the write completes here. Otherwise the run is
    /// still shared with a fork relative, so the block is split (crossing
    /// [`fpr_faults::FaultSite::PtDemote`]; an injected failure fails the
    /// write cleanly with the block intact) and `None` is returned for the
    /// per-page COW machinery to finish the job.
    fn huge_cow_break(
        &mut self,
        vpn: Vpn,
        value: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
        tlb: &mut TlbModel,
        cpus_running: u32,
    ) -> MemResult<Option<FaultOutcome>> {
        let cost = phys.cost().clone();
        let base = vpn.huge_base();
        let block = self.pt.huge_block(vpn).expect("caller translated a huge PTE");
        let sole = self.sole_owner(vpn, block, phys);
        // The block may sit in a huge directory an on-demand fork still
        // shares; both the flip and the split mutate the node.
        self.unshare_subtree(base, phys, cycles)?;
        if sole {
            let mut new = block;
            new.flags = new
                .flags
                .minus(PteFlags::COW)
                .union(PteFlags::WRITABLE | PteFlags::DIRTY);
            self.pt.update(base, new).expect("block translated above");
            cycles.charge(cost.huge_cow);
            self.stats.cow_reuses += 1;
            metrics::incr("mem.fault.cow_reuse");
            tlb.shootdown(cpus_running, cycles, &cost);
            phys.write_content(Pfn(block.pfn.0 + vpn.huge_offset()), value)?;
            return Ok(Some(FaultOutcome::CowReuse));
        }
        self.pt.demote_block(vpn, cycles, &cost)?;
        phys.note_thp_demoted();
        Ok(None)
    }

    /// True if the translation at `vpn` holds the only reference to its
    /// frame — for a huge mapping, to every frame of the block's run.
    fn sole_owner(&self, vpn: Vpn, pte: Pte, phys: &PhysMemory) -> bool {
        let (head, run) = if pte.is_huge() {
            (self.pt.huge_block(vpn).expect("a huge PTE has a block").pfn, HUGE_PAGES)
        } else {
            (pte.pfn, 1)
        };
        (0..run).all(|k| phys.refs(Pfn(head.0 + k)) == Ok(1))
    }

    fn mark_dirty(&mut self, vpn: Vpn) {
        if let Some(mut pte) = self.pt.translate(vpn) {
            if !pte.is_present() {
                return;
            }
            if pte.is_huge() {
                // Hardware tracks dirtiness per TLB entry, which for a
                // huge mapping is the whole block.
                let base = vpn.huge_base();
                let mut block = self.pt.huge_block(vpn).expect("translated above");
                block.flags = block.flags.union(PteFlags::DIRTY | PteFlags::ACCESSED);
                let _ = self.pt.update(base, block);
                return;
            }
            pte.flags = pte.flags.union(PteFlags::DIRTY | PteFlags::ACCESSED);
            let _ = self.pt.update(vpn, pte);
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
