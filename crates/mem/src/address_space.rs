//! Per-process address spaces: a VMA list over a four-level page table.
//!
//! This module carries the heart of the reproduction: [`AddressSpace::fork_from`]
//! performs the work the paper identifies as fork's fundamental cost — walking
//! the parent's VMA list, duplicating every mapping record, copying or
//! COW-marking every present PTE, and write-protecting the parent (which
//! requires a TLB shootdown on every CPU running it). Everything is O(mapped
//! state), not O(1), which is why fork latency in Figure 1 grows with the
//! parent while `posix_spawn` stays flat.

use crate::addr::{Pfn, Vpn, HUGE_PAGES, PT_ENTRIES};
use crate::cost::{CostModel, Cycles};
use crate::error::{MemError, MemResult};
use crate::page_table::{FrameRuns, LeafNode, LeafSlot, PageTable, Slot, SlotKind, Unmapped};
use crate::phys::PhysMemory;
use crate::pte::{Pte, PteFlags};
use crate::tlb::TlbModel;
use crate::vma::{Backing, Share, VmArea, VmaKind};
use fpr_faults::FaultSite;
use fpr_trace::metrics;
use fpr_trace::sink;
use std::ops::Range;
use std::sync::Arc;

/// How fork duplicates private pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ForkMode {
    /// Copy-on-write: share frames read-only, copy on first write.
    Cow,
    /// Eager: copy every present private page at fork time (pre-COW Unix,
    /// and the ablation baseline for E2).
    Eager,
    /// On-demand page-table copy (μFork / On-demand-fork, EuroSys'21):
    /// fork shares whole leaf page-table subtrees refcounted and
    /// effectively read-only; the first write, unmap, or mprotect touching
    /// a shared subtree privatizes just that 512-entry node. Fork-time
    /// work becomes O(VMAs + subtrees), not O(pages).
    OnDemand,
}

/// Counters describing the work an address space has performed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AsStats {
    /// Demand-zero / file-fill faults served.
    pub demand_faults: u64,
    /// COW breaks that copied a frame.
    pub cow_copies: u64,
    /// COW breaks resolved by re-using a sole-owner frame.
    pub cow_reuses: u64,
    /// PTEs copied into children across all forks of this space.
    pub ptes_copied: u64,
    /// VMA records cloned across all forks.
    pub vmas_cloned: u64,
    /// Pages eagerly copied by `ForkMode::Eager` forks.
    pub pages_eager_copied: u64,
    /// Leaf page-table subtrees shared with children by on-demand forks.
    pub pt_subtrees_shared: u64,
    /// Shared subtrees privatized on first touch (the deferred copies).
    pub pt_unshares: u64,
    /// PTEs copied during those deferred subtree privatizations.
    pub ptes_unshare_copied: u64,
}

/// What a range-release pass (munmap/discard) removed, for TLB-flush
/// accounting: total pages freed, and the translation entries behind them
/// (one per small page, one per 2 MiB huge leaf).
#[derive(Debug, Default, Clone, Copy)]
struct ReleaseTally {
    pages: u64,
    small_entries: u64,
    huge_entries: u64,
}

impl ReleaseTally {
    /// Counts `small` translations of a page and `huge` of a 2 MiB block.
    fn add(&mut self, small: u64, huge: u64) {
        self.pages += small + huge * HUGE_PAGES;
        self.small_entries += small;
        self.huge_entries += huge;
    }
}

/// Room a space's first mapping makes in its VMA vector: an exec'd image
/// is six mappings (text, data, bss, heap, guard, stack), and a request
/// maps one or two more.
const FIRST_VMAS: usize = 8;

/// A process address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// The mappings, disjoint, sorted by start page.
    pub(crate) vmas: Vec<VmArea>,
    pub(crate) pt: crate::page_table::PageTable,
    /// Installed PTEs that are swap entries rather than frames. The page
    /// table counts both kinds as "mapped"; residency subtracts this.
    pub(crate) swapped: u64,
    /// Transparent huge pages: when set, private anonymous blocks are
    /// promoted to 2 MiB huge leaves at populate time and opportunistically
    /// after faults. Inherited by fork children. Off by default — the
    /// THP-off world must stay byte-identical to the pre-THP simulator.
    pub(crate) thp: bool,
    /// Work counters.
    pub stats: AsStats,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            vmas: Vec::new(),
            pt: crate::page_table::PageTable::new(),
            swapped: 0,
            thp: false,
            stats: AsStats::default(),
        }
    }

    /// Enables or disables transparent huge pages for this space. Existing
    /// mappings are untouched; disabling stops future promotions only.
    pub fn set_thp(&mut self, enabled: bool) {
        self.thp = enabled;
    }

    /// Number of 2 MiB huge leaf mappings currently installed
    /// (`AnonHugePages` is this times 512 small pages).
    pub fn huge_pages(&self) -> u64 {
        self.pt.huge_mapped()
    }

    /// Returns the VMA covering `vpn`, if any.
    pub fn vma_at(&self, vpn: Vpn) -> Option<&VmArea> {
        self.vmas[..self.vmas_below(vpn.0.saturating_add(1))]
            .last()
            .filter(|v| v.contains(vpn))
    }

    /// Iterates over all VMAs in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &VmArea> {
        self.vmas.iter()
    }

    /// How many mappings start below page `vpn`: the index of the first
    /// that starts at or above it.
    fn vmas_below(&self, vpn: u64) -> usize {
        self.vmas.partition_point(|v| v.start.0 < vpn)
    }

    /// The indices of the mappings that start in `[lo, hi)`.
    fn vmas_starting_in(&self, lo: u64, hi: u64) -> Range<usize> {
        self.vmas_below(lo)..self.vmas_below(hi)
    }

    /// Adds `area`, which overlaps no mapping, in address order. The first
    /// mapping makes room for [`FIRST_VMAS`], so a typical space allocates
    /// its vector once.
    fn insert_vma(&mut self, area: VmArea) {
        if self.vmas.capacity() == 0 {
            self.vmas.reserve_exact(FIRST_VMAS);
        }
        let at = self.vmas_below(area.start.0);
        self.vmas.insert(at, area);
    }

    /// Number of VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Total mapped (resident) pages. Swap entries occupy page-table
    /// slots but hold no frame, so they are excluded.
    pub fn resident_pages(&self) -> u64 {
        self.pt.mapped_pages() - self.swapped
    }

    /// Pages of this space currently evicted to the swap device.
    pub fn swapped_pages(&self) -> u64 {
        self.swapped
    }

    /// Total pages covered by VMAs (virtual size).
    pub fn virtual_pages(&self) -> u64 {
        self.vmas.iter().map(|v| v.pages).sum()
    }

    /// Page-table nodes in use (what fork must allocate for the child).
    pub fn pt_nodes(&self) -> usize {
        self.pt.node_count()
    }

    /// Commit charge of this space: pages whose frames the kernel may have
    /// to materialise (private-writable or anonymous mappings).
    pub fn commit_pages(&self) -> u64 {
        self.vmas.iter().map(VmArea::commit_charge).sum()
    }

    /// Installs a new mapping.
    ///
    /// Shared anonymous mappings are populated eagerly so that frames are
    /// shared with children forked later (the simulator has no global page
    /// cache; see DESIGN.md).
    pub fn mmap(
        &mut self,
        area: VmArea,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        if area.pages == 0 {
            return Err(MemError::BadAlignment);
        }
        if !area.start.is_user() || !Vpn(area.start.0 + area.pages - 1).is_user() {
            return Err(MemError::BadAddress);
        }
        if self.overlaps(area.start, area.pages) {
            return Err(MemError::Overlap);
        }
        let eager_shared = area.share == Share::Shared;
        let start = area.start;
        let pages = area.pages;
        self.insert_vma(area);
        if eager_shared {
            if let Err(e) = self.populate(start, pages, phys, cycles) {
                // Roll back the partial population and the VMA record so a
                // failed mmap leaves the space untouched.
                self.release_range(start, pages, &mut ReleaseTally::default(), phys, cycles);
                self.vmas.remove(self.vmas_below(start.0));
                return Err(e);
            }
        }
        Ok(())
    }

    /// Returns true if `[start, start+pages)` overlaps an existing VMA.
    pub(crate) fn overlaps(&self, start: Vpn, pages: u64) -> bool {
        // VMAs are disjoint, so the last one starting below the range's
        // end is the only one that can reach back into it.
        self.vmas[..self.vmas_below(start.0 + pages)]
            .last()
            .is_some_and(|v| v.end().0 > start.0)
    }

    /// Finds a free run of `pages` pages at or above `hint`: first fit,
    /// walking the VMAs in address order from the one at or below the hint.
    pub fn find_free_range(&self, pages: u64, hint: Vpn) -> MemResult<Vpn> {
        let mut candidate = hint.0;
        let below = self.vmas_below(candidate).saturating_sub(1);
        for v in &self.vmas[below..] {
            if v.start.0 >= candidate + pages {
                break;
            }
            candidate = candidate.max(v.end().0);
        }
        if !Vpn(candidate + pages.saturating_sub(1)).is_user() {
            return Err(MemError::Fragmented);
        }
        Ok(Vpn(candidate))
    }

    /// Removes mappings in `[start, start+pages)`, splitting VMAs that
    /// straddle the boundary and releasing frames.
    pub fn munmap(
        &mut self,
        start: Vpn,
        pages: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
        tlb: &mut TlbModel,
        cpus_running: u32,
    ) -> MemResult<u64> {
        if pages == 0 {
            return Err(MemError::BadAlignment);
        }
        // A huge block cut by a range boundary must be split back into
        // small PTEs before any of it can be unmapped.
        self.demote_straddling(start, phys, cycles)?;
        self.demote_straddling(Vpn(start.0 + pages), phys, cycles)?;
        let mut tally = self.prepare_release_range(start, pages, phys, cycles)?;
        // Nothing fails from here on: a refused munmap leaves the mappings
        // as they were, so they are cut only now.
        self.split_at(start);
        self.split_at(Vpn(start.0 + pages));
        self.release_range(start, pages, &mut tally, phys, cycles);
        self.vmas.drain(self.vmas_starting_in(start.0, start.0 + pages));
        self.release_shootdown(&tally, tlb, cpus_running, cycles, phys.cost());
        Ok(tally.pages)
    }

    /// Removes every entry of `[start, start + pages)`, a node's run at a
    /// time, as `destroy` does a node: what the run holds is dropped in one
    /// pass over its frames — 512 a block — and one over its swap slots.
    /// The translations that were resident are counted into `tally` for
    /// the shootdown; a swap entry was never in any TLB. A node a fork
    /// shares must have been detached or privatized first
    /// ([`Self::prepare_release_range`]), a block the range cuts demoted.
    fn release_range(
        &mut self,
        start: Vpn,
        pages: u64,
        tally: &mut ReleaseTally,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) {
        let AddressSpace { pt, swapped, .. } = self;
        pt.unmap_range(start.0, start.0 + pages, |gone| {
            Self::let_go(&gone, phys, cycles);
            match gone {
                Unmapped::Block(_) => tally.add(0, 1),
                Unmapped::Run(leaf, run, dir) => {
                    let present = leaf.present_in(run.clone());
                    *swapped -= leaf.live_in(run) - present;
                    if dir { tally.add(0, present) } else { tally.add(present, 0) }
                }
            }
        });
    }

    /// Drops what the entries `gone` held reference: the frames of a block
    /// as one run, a node run's frames — 512 a block of a directory — in
    /// one release and its swap slots in the same call.
    fn let_go(gone: &Unmapped, phys: &mut PhysMemory, cycles: &mut Cycles) {
        let released = match gone {
            Unmapped::Block(pte) => phys.dec_ref_run(pte.pfn, HUGE_PAGES, cycles),
            Unmapped::Run(leaf, run, dir) => {
                let (runs, slots) = (leaf.frame_runs(run.clone(), *dir), leaf.swap_slots(run.clone()));
                phys.release(runs, slots, cycles).map(|_| ())
            }
        };
        released.expect("frames and slots tracked");
    }

    /// If `boundary` cuts through the interior of a huge block, demotes
    /// that block so range operations only ever see whole blocks inside
    /// their range. No-op when the boundary is block-aligned or no huge
    /// mapping covers it.
    fn demote_straddling(
        &mut self,
        boundary: Vpn,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        if boundary.is_huge_aligned() || self.pt.huge_block(boundary).is_none() {
            return Ok(());
        }
        // The block may live in a huge directory another space still
        // shares; the split below mutates it, so privatize first.
        self.unshare_subtree(boundary, phys, cycles)?;
        self.pt.demote_block(boundary, cycles, phys.cost())?;
        phys.note_thp_demoted();
        Ok(())
    }

    /// Flushes stale translations after `tally` mappings were removed.
    /// THP-off spaces keep the legacy single-round shootdown; THP-on
    /// spaces use the entry-granular flush, where each huge leaf costs
    /// one invalidation instead of 512.
    fn release_shootdown(
        &self,
        tally: &ReleaseTally,
        tlb: &mut TlbModel,
        cpus_running: u32,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) {
        if self.thp {
            tlb.shootdown_entries(
                cpus_running,
                tally.small_entries,
                tally.huge_entries,
                cycles,
                cost,
            );
        } else if tally.pages > 0 {
            tlb.shootdown(cpus_running, cycles, cost);
        }
    }

    /// Prepares `[start, start+pages)` for translation removal: leaf
    /// subtrees (and huge directories) still shared with another space are
    /// either detached (when every present PTE falls inside the range —
    /// the other owner keeps the frames, so dropping our reference is one
    /// pointer operation) or privatized first (when the node straddles the
    /// range boundary). Returns the pages and TLB entries released by
    /// whole-node detaches.
    fn prepare_release_range(
        &mut self,
        start: Vpn,
        pages: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<ReleaseTally> {
        let (lo, hi, mut tally) = (start.0, start.0 + pages, ReleaseTally::default());
        let AddressSpace { pt, stats, swapped, .. } = self;
        // Neither a detach nor a privatization moves another slot.
        pt.with_leaf_slots(lo, hi, |pt, slots| {
            for &slot @ (base, node, idx, kind) in slots {
                // Lone huge leaves are never shared — fork shares their
                // frames, not the entry — so only Arc-backed slots matter.
                let Some(leaf) = (kind != SlotKind::Huge).then(|| pt.leaf_at(node, idx)) else { continue };
                let inside = leaf.live_in(kind.positions(base, lo, hi));
                if Arc::strong_count(leaf) == 1 || inside == 0 {
                    continue;
                }
                if inside < leaf.live() {
                    Self::unshare(pt, stats, slot, phys, cycles)?;
                    continue;
                }
                // Still referenced by the other space, which releases what
                // it references when it drops its copy; our drop is free.
                let arc = pt.detach_leaf(base).expect("node just enumerated");
                if kind == SlotKind::Dir {
                    // Huge pages never swap: every member is a resident
                    // 512-page block.
                    tally.add(0, arc.live());
                } else {
                    // Slot references follow leaf-node identity, so the
                    // surviving owner keeps the swap slots too.
                    *swapped -= arc.swap_entries();
                    tally.add(arc.live() - arc.swap_entries(), 0);
                }
            }
            Ok(tally)
        })
    }

    /// Splits the VMA containing `at` so that `at` becomes a VMA boundary.
    /// No-op if `at` is already a boundary or unmapped.
    pub(crate) fn split_at(&mut self, at: Vpn) {
        let Some(i) = self.vmas_below(at.0).checked_sub(1).filter(|&i| self.vmas[i].contains(at)) else {
            return;
        };
        let low = &mut self.vmas[i];
        let mut high = low.clone();
        let split_pages = at.0 - low.start.0;
        low.pages = split_pages;
        high.start = at;
        high.pages -= split_pages;
        if let Backing::File {
            file_id,
            page_offset,
        } = high.backing
        {
            high.backing = Backing::File {
                file_id,
                page_offset: page_offset + split_pages,
            };
        }
        self.vmas.insert(i + 1, high);
    }

    /// Changes protection on `[start, start+pages)`, splitting VMAs as
    /// needed and downgrading PTE permissions (an upgrade takes effect
    /// lazily through faults, as on real hardware).
    #[allow(clippy::too_many_arguments)]
    pub fn mprotect(
        &mut self,
        start: Vpn,
        pages: u64,
        prot: crate::vma::Prot,
        cycles: &mut Cycles,
        phys: &mut PhysMemory,
        tlb: &mut TlbModel,
        cpus_running: u32,
    ) -> MemResult<()> {
        if !self.covered(start, pages) {
            return Err(MemError::NotMapped);
        }
        // A protection boundary inside a huge block forces a split: the
        // block's single PTE cannot carry two protections.
        self.demote_straddling(start, phys, cycles)?;
        self.demote_straddling(Vpn(start.0 + pages), phys, cycles)?;
        // Writes are taken away first, from each mapping's part of the range
        // that had them: the last step that can fail. A refused mprotect
        // leaves the mappings as they were — an entry it write-protected
        // before failing gets its write back from a fault, as an upgrade
        // does — so they are cut and reprotected only after it.
        let (lo, hi) = (start.0, start.0 + pages);
        let losing: Vec<Range<u64>> = self.vmas[..self.vmas_below(hi)]
            .iter()
            .filter(|v| v.end().0 > lo && v.prot.write && !prot.write)
            .map(|v| v.start.0.max(lo)..v.end().0.min(hi))
            .collect();
        let mut tally = ReleaseTally::default();
        for range in losing {
            self.write_protect_range(range, &mut tally, phys, cycles)?;
        }
        self.split_at(start);
        self.split_at(Vpn(hi));
        let cut = self.vmas_starting_in(lo, hi);
        self.vmas[cut].iter_mut().for_each(|v| v.prot = prot);
        self.release_shootdown(&tally, tlb, cpus_running, cycles, phys.cost());
        Ok(())
    }

    /// Takes writes away from every entry of `range`, a node's run at a
    /// time, counting the resident translations into `tally` for the flush
    /// — a swap entry was never in any TLB. A node a fork shares is
    /// privatized first if its run holds a writable entry: the other space
    /// keeps its permissions.
    fn write_protect_range(
        &mut self,
        range: Range<u64>,
        tally: &mut ReleaseTally,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        let AddressSpace { pt, stats, .. } = self;
        pt.with_leaf_slots(range.start, range.end, |pt, slots| {
            for &slot @ (base, _, _, kind) in slots {
                let run = kind.positions(base, range.start, range.end);
                let (present, writable) = pt.run_at(slot, run.clone());
                if kind == SlotKind::Small { tally.add(present, 0) } else { tally.add(0, present) }
                if writable {
                    Self::unshare(pt, stats, slot, phys, cycles)?;
                    pt.write_protect_at(slot, run, false, |_, _| {});
                }
            }
            Ok(())
        })
    }

    /// Whether every page of `[start, start + pages)` lies in a mapping.
    fn covered(&self, start: Vpn, pages: u64) -> bool {
        let end = start.0 + pages;
        let reaching_in = self.vmas[..self.vmas_below(end)].iter().rev().take_while(|v| v.end().0 > start.0);
        reaching_in.map(|v| v.end().0.min(end) - v.start.0.max(start.0)).sum::<u64>() == pages
    }

    /// Discards the resident pages of `[start, start+pages)` without
    /// unmapping the VMAs (`MADV_DONTNEED`): frames are released and the
    /// next access demand-fills from the backing object.
    pub fn discard(
        &mut self,
        start: Vpn,
        pages: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
        tlb: &mut TlbModel,
        cpus_running: u32,
    ) -> MemResult<u64> {
        if pages == 0 {
            return Err(MemError::BadAlignment);
        }
        if !self.covered(start, pages) {
            return Err(MemError::NotMapped);
        }
        self.demote_straddling(start, phys, cycles)?;
        self.demote_straddling(Vpn(start.0 + pages), phys, cycles)?;
        let mut tally = self.prepare_release_range(start, pages, phys, cycles)?;
        self.release_range(start, pages, &mut tally, phys, cycles);
        self.release_shootdown(&tally, tlb, cpus_running, cycles, phys.cost());
        Ok(tally.pages)
    }

    /// Relocates the VMA starting exactly at `old_start` to `new_start`,
    /// carrying its resident pages along: every present PTE is remapped at
    /// the new base with the same frame and flags. No frames are copied,
    /// no reference counts change, and the commit charge is untouched —
    /// the mapping just moves. Returns the number of PTEs moved.
    ///
    /// This is the warm-pool ASLR primitive: a parked child's segments are
    /// loaded at provisional bases, and checkout slides each VMA to a
    /// freshly randomized base. The caller is responsible for TLB
    /// invalidation; a never-scheduled address space (no CPU ever loaded
    /// its root) needs none.
    ///
    /// The entries move a node's run at a time: each 2 MiB span the mapping
    /// reaches into is looked up, its node unshared if a fork still holds
    /// it; blocks the mapping covers part of, or whose alignment the slide
    /// would break, are split; then each node's run is mapped at its
    /// destination with an index shift — one [`FaultSite::PtNodeAlloc`]
    /// crossing and one [`CostModel::pte_copy`] an entry, ascending, the
    /// destination's nodes allocated while the source's path still stands
    /// (`slide_entries`) — and only when all of it is, taken out of
    /// its source. A mapping with nothing resident is re-keyed and that is
    /// all.
    ///
    /// The destination range must be entirely free (including of the
    /// source VMA itself — overlapping slides are rejected). On `Err` the
    /// space is as it was, whatever state does not depend on the cycles
    /// charged included: every mapping, every translation's frame, every
    /// reference count, the page table's node count. Entries mapped before
    /// entry *k* failed are unmapped again, which takes the nodes allocated
    /// for them with it. What stays is what nobody can observe: a node
    /// unshared or a block split on the way, and the cycles all of it cost.
    pub fn slide_vma(
        &mut self,
        old_start: Vpn,
        new_start: Vpn,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<u64> {
        if old_start == new_start {
            return Ok(0);
        }
        let i = self.vmas_below(old_start.0);
        let pages = self.vmas.get(i).filter(|v| v.start == old_start).ok_or(MemError::NotMapped)?.pages;
        if !new_start.is_user() || !Vpn(new_start.0 + pages - 1).is_user() {
            return Err(MemError::BadAddress);
        }
        if self.overlaps(new_start, pages) {
            return Err(MemError::Overlap);
        }
        let old = old_start.0..old_start.0 + pages;
        let blocks = self.pt.huge_mapped() > 0;
        if blocks {
            // A huge block the mapping covers only part of — a fork-policy
            // range split the mapping inside it — cannot move with it.
            self.demote_straddling(old_start, phys, cycles)?;
            self.demote_straddling(Vpn(old.end), phys, cycles)?;
        }
        // Leaf subtrees still shared with another space cannot be mutated
        // in place; they are privatized first (no-op for a private space).
        for span in (old.start / HUGE_PAGES..old.end.div_ceil(HUGE_PAGES)).map(|b| Vpn(b * HUGE_PAGES)) {
            if let Some(slot) = self.pt.find(span) {
                self.unshare_at(slot, phys, cycles)?;
            }
        }
        // A huge block can move as a unit only if the slide preserves its
        // 2 MiB alignment; otherwise split it and let the THP machinery
        // re-promote at the new home.
        if blocks && !new_start.0.abs_diff(old_start.0).is_multiple_of(HUGE_PAGES) {
            let whole = old.start.div_ceil(HUGE_PAGES)..old.end / HUGE_PAGES;
            for block in whole.map(|b| Vpn(b * HUGE_PAGES)) {
                if self.pt.huge_block(block).is_some() {
                    self.pt.demote_block(block, cycles, phys.cost())?;
                    phys.note_thp_demoted();
                }
            }
        }
        // Map into the destination first so a mid-slide allocation failure
        // (page-table node exhaustion, injected fault) can roll back by
        // unmapping what the destination holds, which is only what was just
        // mapped — the source is untouched until every destination entry
        // exists.
        let moved = match self.slide_entries(old.clone(), new_start.0.wrapping_sub(old_start.0), phys, cycles) {
            Ok(moved) => moved,
            Err(e) => {
                self.pt.unmap_range(new_start.0, new_start.0 + pages, |_| {});
                return Err(e);
            }
        };
        // The source, a node at a time, as the destination was mapped.
        let spans = (old.start / HUGE_PAGES..old.end.div_ceil(HUGE_PAGES)).filter(|_| moved > 0);
        for span in spans.map(|b| Vpn(b * HUGE_PAGES)) {
            if let Some(slot) = self.pt.find(span) {
                self.pt.unmap_run(slot, (old.start, old.end), &mut |_| {});
            }
        }
        let mut vma = self.vmas.remove(i);
        vma.start = new_start;
        self.insert_vma(vma);
        sink::instant("vma_slide", "mem", cycles.total());
        Ok(moved)
    }

    /// The destination half of [`Self::slide_vma`]: maps the entries of the
    /// pages `old` again `delta` pages further on, ascending, and returns
    /// how many it mapped. A node's run moves with an index shift, a part
    /// for each destination node it lands in:
    /// the destination node is unshared if a fork still holds it, then one
    /// [`FaultSite::PtNodeAlloc`] crossing and one [`CostModel::pte_copy`]
    /// go to each entry begun. A block moves whole, into the table
    /// ([`PageTable::map_huge`]).
    fn slide_entries(&mut self, old: Range<u64>, delta: u64, phys: &mut PhysMemory, cycles: &mut Cycles) -> MemResult<u64> {
        let AddressSpace { pt, stats, .. } = self;
        let mut moved = 0;
        for span in (old.start / HUGE_PAGES..old.end.div_ceil(HUGE_PAGES)).map(|b| Vpn(b * HUGE_PAGES)) {
            let Some(slot) = pt.find(span) else { continue };
            let (base, node, idx, kind) = slot;
            if kind == SlotKind::Small {
                // Cut where the destination's node boundary falls.
                let run = kind.positions(base, old.start, old.end);
                let split = (PT_ENTRIES - delta as usize % PT_ENTRIES).clamp(run.start, run.end);
                for part in [run.start..split, split..run.end] {
                    let leaf = pt.leaf_at(node, idx);
                    if !leaf.holds_in(part.clone()) {
                        continue;
                    }
                    let entries = leaf.live_in(part.clone());
                    let to = Vpn((base + part.start as u64).wrapping_add(delta));
                    let found = pt.find(to);
                    if let Some(dest) = found {
                        Self::unshare(pt, stats, dest, phys, cycles)?;
                    }
                    let crossed = fpr_faults::cross_n(FaultSite::PtNodeAlloc, entries);
                    let (n, begun) = crossed.map_or_else(|(passed, _)| (passed, passed + 1), |()| (entries, entries));
                    cycles.charge_n(phys.cost().pte_copy, begun);
                    pt.map_moved(slot, part, n, (to, found), cycles, phys.cost())?;
                    moved += n;
                    crossed.map_err(|_| MemError::OutOfMemory)?;
                }
                continue;
            }
            // A block the mapping holds lies inside it: one that did not
            // was split above.
            let Some(block) = pt.block_at(slot, span) else { continue };
            let to = Vpn(span.0.wrapping_add(delta));
            if let Some(dest) = pt.find(to) {
                Self::unshare(pt, stats, dest, phys, cycles)?;
            }
            pt.map_huge(to, block, phys.cost().pte_copy, cycles, phys.cost())?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Maps an already-allocated frame at `vpn` copy-on-write — the exec
    /// image-cache hit path. The caller keeps whatever reference it holds
    /// (a kernel pin); this call takes one more for the new mapping. The
    /// page arrives write-protected with `PteFlags::COW` set, so a first
    /// write breaks the share with an ordinary COW copy; `exec` governs
    /// the NX bit. Charges one PTE copy. On `Err` nothing changed.
    ///
    /// The target must lie inside an existing VMA and must not already be
    /// resident.
    pub fn map_shared_frame(
        &mut self,
        vpn: Vpn,
        pfn: Pfn,
        exec: bool,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        if self.vma_at(vpn).is_none() {
            return Err(MemError::NotMapped);
        }
        let mut flags = PteFlags::USER | PteFlags::ACCESSED | PteFlags::COW;
        if !exec {
            flags = flags | PteFlags::NX;
        }
        phys.inc_ref_run(pfn, 1)?;
        cycles.charge(phys.cost().pte_copy);
        if let Err(e) = self.pt.map_at(vpn, Pte::new(pfn, flags), None, cycles, phys.cost()) {
            phys.dec_ref(pfn, cycles).expect("reference just taken");
            return Err(e);
        }
        Ok(())
    }

    /// Write-protects and COW-marks the resident page at `vpn` — the donor
    /// side of an exec image-cache insert. The frame is about to gain a
    /// long-lived kernel pin, so the donor must no longer write it in
    /// place; its first write after this breaks the share like any COW
    /// page. Returns the PTE now installed. Charges no cycles: tightening
    /// permissions on a page the donor has not yet been scheduled to touch
    /// is flag surgery, not copied data, and the insert path must leave
    /// the donor's spawn cost exactly equal to the uncached path.
    pub fn cow_protect_page(&mut self, vpn: Vpn, phys: &mut PhysMemory, cycles: &mut Cycles) -> MemResult<Pte> {
        let pte = self.pt.translate(vpn).ok_or(MemError::NotMapped)?;
        if pte.is_swap() {
            // A swapped-out page is not resident and cannot donate its
            // frame to the image cache.
            return Err(MemError::NotMapped);
        }
        if pte.is_huge() {
            // Donating one page out of a huge block pins and COW-marks
            // that page alone, so the block must be split first (the
            // demote charge is the price of the odd page-out).
            self.unshare_subtree(vpn, phys, cycles)?;
            self.pt.demote_block(vpn, cycles, phys.cost())?;
            phys.note_thp_demoted();
        }
        let slot = self.pt.find(vpn).expect("still mapped after demote");
        let pte = self.pt.pte_at(slot, vpn).expect("still mapped after demote");
        let new = cow_marked(pte);
        if new != pte {
            self.unshare_at(slot, phys, cycles)?;
            self.pt.update_at(slot, vpn, new).expect("translated above");
        }
        Ok(new)
    }

    /// Rewrites the fork policy of every page in `[start, start+pages)`,
    /// splitting VMAs at the boundaries (`madvise` with the fork-related
    /// advice values).
    pub fn set_fork_policy(
        &mut self,
        start: Vpn,
        pages: u64,
        f: impl Fn(&mut crate::vma::ForkPolicy),
    ) -> MemResult<()> {
        if pages == 0 {
            return Err(MemError::BadAlignment);
        }
        if !self.covered(start, pages) {
            return Err(MemError::NotMapped);
        }
        self.split_at(start);
        self.split_at(Vpn(start.0 + pages));
        let cut = self.vmas_starting_in(start.0, start.0 + pages);
        self.vmas[cut].iter_mut().for_each(|v| f(&mut v.fork_policy));
        Ok(())
    }

    /// Pre-faults every page of `[start, start+pages)` (like
    /// `MAP_POPULATE` / `mlock`), making them resident.
    ///
    /// With THP on, an aligned 2 MiB window the range covers whole is
    /// first offered to a huge block. Otherwise the range goes a leaf
    /// node's run at a time — the stretch of a node one mapping covers:
    /// one walk, one unshare, one VMA lookup and one update of the node's
    /// counts a run, and for each empty entry of it the frame, the charges
    /// and the crossings a demand fault would make, in a fault's order. A
    /// swap entry swaps in on its own, one at a time. Every frame, charge
    /// and crossing is the one filling page by page would make.
    ///
    /// On `Err` — an injected failure, the pool dry, a page no mapping
    /// covers — the pages before the one that failed stay resident, and
    /// the frame taken for that one, if any, is given back: the prefix
    /// rule.
    pub fn populate(
        &mut self,
        start: Vpn,
        pages: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        let end = start.0.saturating_add(pages);
        let mut vpn = start;
        while vpn.0 < end {
            if self.thp
                && vpn.is_huge_aligned()
                && end - vpn.0 >= HUGE_PAGES
                && self.try_populate_huge(vpn, phys, cycles)?
            {
                vpn = vpn.add(HUGE_PAGES);
                continue;
            }
            vpn = match self.lookup(vpn) {
                (Some(slot), Some(pte)) if pte.is_swap() => {
                    self.swap_in(vpn, pte, slot, false, phys, cycles)?;
                    vpn.add(1)
                }
                (_, Some(_)) => vpn.add(1),
                (slot, None) => self.demand_fill(vpn, end, slot, false, phys, cycles)?.1,
            };
        }
        Ok(())
    }

    /// Attempts to fill the whole 2 MiB block at aligned `base` with one
    /// huge mapping instead of 512 demand fills. `Ok(false)` means the
    /// block was not eligible — partially populated, wrong VMA shape,
    /// fragmented physical memory, or an injected promotion failure — and
    /// the caller falls back to small pages. That is the THP contract:
    /// promotion is an optimisation, never a reason for an operation to
    /// fail.
    fn try_populate_huge(
        &mut self,
        base: Vpn,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<bool> {
        debug_assert!(base.is_huge_aligned());
        let Some(vma) = self.vma_at(base) else {
            return Ok(false);
        };
        if vma.share != Share::Private
            || !matches!(vma.backing, Backing::Anon)
            || !vma.contains(Vpn(base.0 + HUGE_PAGES - 1))
            || vma.initial_content(base) != 0
        {
            return Ok(false);
        }
        let vma = vma.clone();
        let holds = |slot| self.pt.slot_entries(slot).any(|(_, vpn, _)| vpn.huge_base() == base);
        if self.pt.find(base).is_some_and(holds) {
            return Ok(false);
        }
        // The injected-failure contract for promotion is absorption: the
        // operation still succeeds, the block just stays small.
        if fpr_faults::cross(FaultSite::PtPromote).is_err() {
            phys.note_thp_promote_failed();
            return Ok(false);
        }
        let head = match phys.alloc_zeroed_huge_run(cycles) {
            Ok(h) => h,
            Err(MemError::Fragmented) | Err(MemError::OutOfMemory) => {
                phys.note_thp_promote_failed();
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        let mut flags = PteFlags::USER | PteFlags::ACCESSED;
        if vma.prot.write {
            flags = flags | PteFlags::WRITABLE;
        }
        if !vma.prot.exec {
            flags = flags | PteFlags::NX;
        }
        // The empty block may sit in a hole of a huge directory another
        // space still shares; writing the member PTE mutates the node.
        self.unshare_subtree(base, phys, cycles)?;
        if let Err(e) = self.pt.map_huge(base, Pte::new(head, flags), phys.cost().huge_map, cycles, phys.cost()) {
            phys.dec_ref_run(head, HUGE_PAGES, cycles)
                .expect("run just allocated");
            return Err(e);
        }
        phys.note_thp_promoted();
        sink::instant("thp_promote", "mem", cycles.total());
        Ok(true)
    }

    /// Opportunistic promotion after a fault: if the 2 MiB block around
    /// `vpn` has become a full leaf of exclusively-owned, physically
    /// contiguous small pages with uniform flags, collapse it into one
    /// huge leaf. Every failure is absorbed — a missed promotion leaves
    /// the world exactly as the THP-off simulator would have it.
    pub(crate) fn try_promote(
        &mut self,
        vpn: Vpn,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> bool {
        if !self.thp {
            return false;
        }
        let base = vpn.huge_base();
        let Some(vma) = self.vma_at(base) else {
            return false;
        };
        if vma.share != Share::Private
            || !matches!(vma.backing, Backing::Anon)
            || !vma.contains(Vpn(base.0 + HUGE_PAGES - 1))
        {
            return false;
        }
        let Some(hpte) = self.pt.promotable(base) else {
            return false;
        };
        if hpte.flags.contains(PteFlags::COW) || hpte.flags.contains(PteFlags::SHARED) {
            return false;
        }
        // Frames COW-shared with another space (or pinned by the image
        // cache) block promotion: the block must be breakable as a unit.
        for k in 0..HUGE_PAGES {
            let pfn = Pfn(hpte.pfn.0 + k);
            if phys.refs(pfn).unwrap_or(u32::MAX) != 1 || phys.pin_count(pfn) > 0 {
                return false;
            }
        }
        if fpr_faults::cross(FaultSite::PtPromote).is_err() {
            phys.note_thp_promote_failed();
            return false;
        }
        if self.pt.promote_block(base, hpte, cycles, phys.cost()).is_err() {
            return false;
        }
        phys.note_thp_promoted();
        sink::instant("thp_promote", "mem", cycles.total());
        true
    }

    /// Observes the logical content of the page at `vpn` *without*
    /// faulting: present pages read their frame, absent pages report the
    /// content a fault would install. Test/verification aid.
    pub fn observe(&self, vpn: Vpn, phys: &PhysMemory) -> MemResult<u64> {
        let vma = self.vma_at(vpn).ok_or(MemError::NotMapped)?;
        match self.pt.translate(vpn) {
            Some(pte) if pte.is_swap() => phys.swap().peek(pte.swap_slot()),
            Some(pte) => phys.content(pte.pfn),
            None => Ok(vma.initial_content(vpn)),
        }
    }

    /// Returns the PTE for `vpn`, if resident.
    pub fn translate(&self, vpn: Vpn) -> Option<Pte> {
        self.pt.translate(vpn)
    }

    /// The one page-table descent of a fault: the leaf-bearing slot whose
    /// span covers `vpn`, if there is one, and the translation it holds
    /// for `vpn`, if it does. Everything the fault goes on to read or
    /// write of that slot takes the coordinates instead of walking again.
    #[inline]
    pub(crate) fn lookup(&self, vpn: Vpn) -> (Option<Slot>, Option<Pte>) {
        let slot = self.pt.find(vpn);
        (slot, slot.and_then(|slot| self.pt.pte_at(slot, vpn)))
    }

    /// Visits every resident page with its PTE, in ascending VPN order
    /// (verification aid for kernel-wide invariant checks). Swap entries
    /// hold no frame and are skipped; see
    /// [`Self::for_each_swap_entry_keyed`].
    pub fn for_each_resident(&self, mut f: impl FnMut(Vpn, Pte)) {
        self.for_each_resident_keyed(|_, vpn, pte| f(vpn, pte))
    }

    /// Like [`Self::for_each_resident`], but also yields a stable identity
    /// for the leaf page-table node holding each PTE. Two spaces yielding
    /// the same identity reference the *same* shared subtree (on-demand
    /// fork), so cross-space accounting must count its PTEs once.
    pub fn for_each_resident_keyed(&self, mut f: impl FnMut(usize, Vpn, Pte)) {
        self.pt.for_each_leaf_keyed(|id, vpn, pte| {
            if !pte.is_present() {
                return;
            }
            // A block is expanded into its 512 pages, so that per-frame
            // accounting (invariants, residency audits) needs no
            // huge-awareness of its own.
            let pages = if pte.is_huge() { HUGE_PAGES } else { 1 };
            for k in 0..pages {
                f(id, Vpn(vpn.0 + k), Pte { pfn: Pfn(pte.pfn.0 + k), ..pte });
            }
        })
    }

    /// Visits every swap entry with its slot index, plus the stable leaf
    /// identity (same contract as [`Self::for_each_resident_keyed`]: a
    /// shared subtree's slots must be counted once across spaces).
    pub fn for_each_swap_entry_keyed(&self, mut f: impl FnMut(usize, Vpn, u64)) {
        self.pt.for_each_leaf_keyed(|id, vpn, pte| {
            if pte.is_swap() {
                f(id, vpn, pte.swap_slot())
            }
        })
    }

    /// Every leaf-bearing slot of the page table, ascending by base — a
    /// small-page node, a huge directory or a lone 2 MiB block — to be read
    /// a node at a time: whether another table shares it, its frame runs,
    /// swap slots and the spans of its entries ([`LeafSlot`]). The kernel's
    /// invariant check is the walk.
    pub fn leaf_slots(&self) -> impl Iterator<Item = LeafSlot<'_>> {
        self.pt.leaf_slot_coords().into_iter().map(|slot| self.pt.leaf_slot(slot))
    }

    /// Whether a mapping covers every page of `pages`: one search for the
    /// mapping of its first page, then a step along the sorted mappings
    /// for each further one the range runs on into.
    pub fn covers(&self, pages: Range<Vpn>) -> bool {
        let Some(mut i) = self.vmas_below(pages.start.0.saturating_add(1)).checked_sub(1) else {
            return pages.is_empty();
        };
        let mut at = pages.start;
        while at < pages.end {
            match self.vmas.get(i) {
                Some(v) if v.contains(at) => (at, i) = (v.end(), i + 1),
                _ => return false,
            }
        }
        true
    }

    /// Recounts what the page table keeps beside its entries, which lookups,
    /// walks, fork and teardown trust instead of reading every slot: the
    /// mapped, huge and leaf-node totals; each leaf node's occupancy,
    /// present and private-writable maps and its entry and swap-entry
    /// counts, from the words of every leaf, shared ones included; each
    /// intermediate node's occupancy map and index against the entries it
    /// holds; and that a free-listed node holds none. Verification aid: `Err` names the first summary
    /// that is off.
    pub fn check_page_table(&self) -> Result<(), String> {
        self.pt.check_summaries()
    }

    /// Scans for pages the reclaim swap tier may evict, cheapest first:
    /// clean pages before dirty ones. A page qualifies only when evicting
    /// it cannot be observed by anyone else: private anonymous mapping,
    /// sole frame owner (no COW sharing), unpinned, not `MAP_SHARED`, and
    /// not inside a leaf subtree an on-demand fork still shares. Returns
    /// at most `max` pages.
    pub fn swap_out_candidates(&self, phys: &PhysMemory, max: usize) -> Vec<Vpn> {
        if max == 0 {
            return Vec::new();
        }
        let mut clean: Vec<Vpn> = Vec::new();
        let mut dirty: Vec<Vpn> = Vec::new();
        for (base, l1, idx, kind) in self.pt.leaf_slot_coords() {
            if !matches!(kind, SlotKind::Small) {
                // Huge mappings never swap: a block is hot by construction
                // (it was promoted because the whole thing is in use), and
                // evicting it would force a demote. Reclaim skips them.
                continue;
            }
            let arc = self.pt.leaf_at(l1, idx);
            if Arc::strong_count(arc) != 1 {
                // Evicting through a shared subtree would pull the page
                // out from under the other space.
                continue;
            }
            for (j, pte) in arc.iter() {
                if !pte.is_present() || pte.flags.contains(PteFlags::SHARED) {
                    continue;
                }
                if phys.refs(pte.pfn).unwrap_or(u32::MAX) != 1 || phys.pin_count(pte.pfn) > 0 {
                    continue;
                }
                let vpn = Vpn(base | j as u64);
                let anon_private = self
                    .vma_at(vpn)
                    .map(|v| v.share == Share::Private && matches!(v.backing, Backing::Anon))
                    .unwrap_or(false);
                if !anon_private {
                    continue;
                }
                if pte.flags.contains(PteFlags::DIRTY) {
                    dirty.push(vpn);
                } else {
                    clean.push(vpn);
                }
            }
        }
        clean.extend(dirty);
        clean.truncate(max);
        clean
    }

    /// Replaces the resident candidate at `vpn` with a swap entry for
    /// `slot`, releasing its frame. Infallible by construction: the
    /// kernel's swap-out pass has already reserved the slot and crossed
    /// every fault site, so this is the commit half of the transaction —
    /// a PTE rewrite plus a frame release.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not a resident sole-owner page (i.e. was not
    /// vetted by [`Self::swap_out_candidates`] in the same pass).
    pub fn swap_out_commit(
        &mut self,
        vpn: Vpn,
        slot: u64,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) {
        let (Some(at), Some(pte)) = self.lookup(vpn) else {
            panic!("candidate no longer resident");
        };
        assert!(pte.is_present(), "candidate already swapped");
        self.pt
            .update_at(at, vpn, Pte::swap_entry(slot))
            .expect("translated above");
        phys.dec_ref(pte.pfn, cycles).expect("sole owner");
        self.swapped += 1;
    }

    /// Tears down the whole space, releasing every frame. Must be called
    /// before dropping the space (frames are owned by [`PhysMemory`]).
    ///
    /// Leaf subtrees still shared with another space are dropped with one
    /// refcount decrement — the surviving owner releases the frames — so
    /// a child that exits without touching its memory tears down in
    /// O(nodes), mirroring the cheap-exit property of on-demand fork.
    pub fn destroy(&mut self, phys: &mut PhysMemory, cycles: &mut Cycles) {
        // A node still shared is dropped with its reference: the other
        // table keeps the frames (and swap slots — references follow leaf
        // identity) alive. One that is this table's alone gives up what it
        // references and goes back to the spares. The frames freed go back
        // together, once the last node is let go of.
        phys.batched(|phys| self.pt.take_leaves(|gone| Self::let_go(&gone, phys, cycles)));
        self.swapped = 0;
        self.vmas.clear();
    }

    /// Replaces the shared leaf subtree covering `vpn` with a private deep
    /// copy, taking one frame reference per present PTE (each table slot
    /// now references the frames independently). No-op if the subtree is
    /// not shared. This is the deferred copy that on-demand fork pushed
    /// out of fork itself; callers charge fault/TLB costs as appropriate.
    pub(crate) fn unshare_subtree(
        &mut self,
        vpn: Vpn,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        match self.pt.find(vpn) {
            Some(slot) => self.unshare_at(slot, phys, cycles),
            None => Ok(()),
        }
    }

    /// [`Self::unshare_subtree`] of the leaf node at coordinates a lookup
    /// has already found. They stay good: the private copy takes the shared
    /// node's place.
    pub(crate) fn unshare_at(
        &mut self,
        slot: Slot,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        Self::unshare(&mut self.pt, &mut self.stats, slot, phys, cycles)
    }

    /// [`Self::unshare_at`] on the parts of a space a walk of its table
    /// holds apart.
    fn unshare(pt: &mut PageTable, stats: &mut AsStats, slot: Slot, phys: &mut PhysMemory, cycles: &mut Cycles) -> MemResult<()> {
        if !pt.shared_at(slot) {
            return Ok(());
        }
        let copy = pt.privatize_at(slot, cycles, phys.cost())?;
        // The copy references every frame — 512 a block of a directory —
        // and every swap slot from a second leaf node.
        let (runs, slots) = (copy.frame_runs(0..PT_ENTRIES, slot.3 == SlotKind::Dir), copy.swap_slots(0..PT_ENTRIES));
        phys.retain(runs, slots).expect("tracked by the shared subtree");
        let copied = copy.live();
        stats.pt_unshares += 1;
        stats.ptes_unshare_copied += copied;
        metrics::incr("mem.unshare.pt_node");
        metrics::add("mem.unshare.pte_copy", copied);
        sink::instant("pt_unshare", "mem", cycles.total());
        Ok(())
    }

    /// Duplicates `parent` into a new address space, implementing the
    /// semantics of `fork(2)`.
    ///
    /// Work performed (and charged):
    /// * one VMA-record clone per inherited mapping;
    /// * one PTE copy per resident page (plus the child's page-table
    ///   nodes), COW-marking private pages in **both** spaces;
    /// * for [`ForkMode::Eager`], a full page copy per resident private page;
    /// * one TLB shootdown across `cpus_running` CPUs, because the
    ///   parent's writable translations were just write-protected.
    ///
    /// `MADV_DONTFORK` mappings are skipped, `MADV_WIPEONFORK` mappings are
    /// inherited empty, and `MAP_SHARED` mappings alias the same frames.
    ///
    /// # Transactionality
    ///
    /// `fork_from` is all-or-nothing. A mid-walk failure (frame or
    /// page-table-node exhaustion, injected fault) rolls back completely:
    /// every PTE the parent had downgraded to COW is restored to its
    /// original flags, and the partially-built child is destroyed, which
    /// drops every reference count it took. On `Err`, the parent and
    /// [`PhysMemory`] are exactly as they were before the call (cycle
    /// charges for work attempted are kept — time was really spent).
    pub fn fork_from(
        parent: &mut AddressSpace,
        mode: ForkMode,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
        tlb: &mut TlbModel,
        cpus_running: u32,
    ) -> MemResult<AddressSpace> {
        let mut child = AddressSpace::new();
        child.thp = parent.thp;
        let stats_base = parent.stats.clone();
        sink::span_begin("address_space_fork", "mem", cycles.total());
        // Undo log: parent PTEs downgraded to COW, with their original
        // value, in case the walk fails partway.
        let mut downgrades: Vec<(Vpn, Pte)> = Vec::new();
        let result = Self::fork_demote_mixed_blocks(parent, phys, cycles)
            .and_then(|_| Self::fork_walk(parent, &mut child, &mut downgrades, mode, phys, cycles));
        let out = match result {
            Ok(()) => {
                if !downgrades.is_empty() || mode == ForkMode::Eager {
                    // The parent's mappings changed (COW) or its pages were
                    // read via their kernel mappings (eager); either way
                    // stale translations must be flushed everywhere the
                    // parent runs.
                    tlb.shootdown(cpus_running, cycles, phys.cost());
                }
                let s = &parent.stats;
                metrics::add("mem.fork.vma_clone", s.vmas_cloned - stats_base.vmas_cloned);
                metrics::add("mem.fork.pte_copy", s.ptes_copied - stats_base.ptes_copied);
                metrics::add(
                    "mem.fork.pt_subtree_share",
                    s.pt_subtrees_shared - stats_base.pt_subtrees_shared,
                );
                metrics::add(
                    "mem.fork.pt_node",
                    (child.pt.node_count() as u64).saturating_sub(1),
                );
                Ok(child)
            }
            Err(e) => {
                // Roll back. The partial child is torn down *first*:
                // dropping its shared-subtree references makes the
                // parent's leaf nodes exclusively owned again, which the
                // downgrade restores below require (they mutate PTEs in
                // place). Destruction releases every frame reference the
                // child took; restoring the downgrades is a permission
                // upgrade, so no shootdown is needed — stale read-only
                // translations fault and retry.
                child.destroy(phys, cycles);
                for (vpn, orig) in downgrades {
                    parent.pt.update(vpn, orig).expect("downgraded leaf still mapped");
                }
                sink::instant("fork_rollback", "mem", cycles.total());
                Err(e)
            }
        };
        sink::span_end("address_space_fork", cycles.total());
        out
    }

    /// Fork policy is per-VMA but a huge block is all-or-nothing: a block
    /// whose pages are no longer covered by a single VMA (a `DONTFORK` /
    /// `WIPEONFORK` or protection split landed inside it) is demoted up
    /// front so the fork walk only ever sees uniformly inherited blocks.
    /// The demotes survive a fork rollback — they are user-invisible.
    /// Only `Huge` and `Dir` slots hold blocks, so the search is O(nodes).
    fn fork_demote_mixed_blocks(
        parent: &mut AddressSpace,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        if parent.pt.huge_mapped() == 0 {
            return Ok(());
        }
        let whole = |b: Vpn| {
            let last = Vpn(b.0 + HUGE_PAGES - 1);
            parent.vma_at(b).is_some_and(|v| v.contains(last))
        };
        let mut mixed: Vec<Vpn> = Vec::new();
        for slot in parent.pt.leaf_slot_coords() {
            if slot.3 != SlotKind::Small {
                mixed.extend(parent.pt.slot_entries(slot).map(|e| e.1).filter(|b| !whole(*b)));
            }
        }
        for b in mixed {
            parent.unshare_subtree(b, phys, cycles)?;
            parent.pt.demote_block(b, cycles, phys.cost())?;
            phys.note_thp_demoted();
        }
        Ok(())
    }

    /// The fallible body of [`AddressSpace::fork_from`], the same walk in
    /// every mode: clone the VMA records, then make one ascending pass
    /// over the parent's leaf slots, recording parent downgrades in
    /// `downgrades`. A slot is judged as a whole before any entry of it is
    /// read: the VMAs reaching into it — slots and VMAs both ascend, so
    /// finding them is a cursor step, not a lookup — say for each run of
    /// its 512 positions whether the child inherits what is mapped there.
    /// Then
    ///
    /// * a slot with no inherited position (`DONTFORK`, `WIPEONFORK`) is
    ///   passed over;
    /// * [`ForkMode::OnDemand`] attaches a node whose entries are all
    ///   inherited to the child as it stands: one pointer copy and a
    ///   refcount bump share up to 512 PTEs — or, for a huge directory, up
    ///   to a GiB of blocks, which is what makes fork of a fully-huge space
    ///   almost free. Where inheritable VMAs cover every position, and a
    ///   parent forked before has nothing left to COW-mark, not one entry
    ///   is read; only a node that a hole or a fork-policy range reaches
    ///   into has its runs counted;
    /// * anything else is copied a run at a time: a small-PTE node's runs
    ///   into a node built off to the side and wired into the child with
    ///   one descent ([`Self::fork_copy_run`]), a block's 512 frames as one
    ///   run into the child's table ([`Self::fork_copy_block`]).
    ///
    /// Last, the parent's entries of each private run the child got a
    /// reference to — all of it, or the part before an entry that failed —
    /// are write-protected and COW-marked in one pass.
    fn fork_walk(
        parent: &mut AddressSpace,
        child: &mut AddressSpace,
        downgrades: &mut Vec<(Vpn, Pte)>,
        mode: ForkMode,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        let AddressSpace { vmas, pt, stats, .. } = parent;
        child.vmas.reserve_exact(vmas.len());
        for vma in vmas.iter().filter(|v| !v.fork_policy.dont_fork) {
            fpr_faults::cross(FaultSite::VmaClone).map_err(|_| MemError::OutOfMemory)?;
            cycles.charge(phys.cost().vma_clone);
            stats.vmas_cloned += 1;
            child.vmas.push(vma.clone());
        }
        if mode == ForkMode::OnDemand {
            // Gather loose huge blocks into (partial) directories first:
            // each all-huge level-1 table then shares below with one
            // pointer copy instead of a per-block COW copy.
            pt.group_huge_tables();
        }
        // The inherit rule: the child receives an entry under its VMA's
        // sharing policy unless that VMA is `DONTFORK` (no mapping) or
        // `WIPEONFORK` (an empty, demand-zero range).
        let inherited = |vma: &VmArea| {
            (!vma.fork_policy.dont_fork && !vma.fork_policy.wipe_on_fork).then_some(vma.share)
        };
        let eager = mode == ForkMode::Eager;
        let mut cursor = vmas.iter().peekable();
        // The rule's answers for the current slot: its *runs*, ascending
        // ranges of in-node positions with one answer each.
        let mut runs: Vec<(Range<usize>, Option<Share>)> = Vec::new();
        pt.with_leaf_slots(0, u64::MAX, |pt, slots| {
            for &slot in slots {
                let (base, node, idx, kind) = slot;
                let stride = kind.stride();
                let end = base + PT_ENTRIES as u64 * stride;
                while cursor.next_if(|v| v.end().0 <= base).is_some() {}
                runs.clear();
                let mut answered = 0;
                let mut answer = |upto: usize, share: Option<Share>| {
                    if answered < upto {
                        runs.push((answered..upto, share));
                        answered = upto;
                    }
                };
                // An entry goes by the VMA holding its first page; where
                // there is none, nothing is inherited. The last VMA reaching
                // in may reach on into later slots: it stays under the cursor.
                for vma in cursor.clone().take_while(|v| v.start.0 < end) {
                    let run = kind.positions(base, vma.start.0, vma.end().0);
                    answer(run.start, None);
                    answer(run.end, inherited(vma));
                }
                answer(PT_ENTRIES, None);
                if runs.iter().all(|r| r.1.is_none()) {
                    continue;
                }
                // A lone huge block is an entry of its level-1 table, not a
                // node of its own: there is nothing to attach.
                let attach = mode == ForkMode::OnDemand && kind != SlotKind::Huge && {
                    let leaf = pt.leaf_at(node, idx);
                    runs.iter().all(|(run, share)| share.is_some() || !leaf.holds_in(run.clone()))
                };
                let mut log = |j: usize, pte: Pte| downgrades.push((Vpn(base + j as u64 * stride), pte));
                if attach {
                    // First sharing of this node: COW-mark its private
                    // writable PTEs in place (one marking serves both tables —
                    // that is what sharing means). A node that is *already*
                    // shared holds none (they were marked when it was first
                    // shared), so re-sharing needs no marking — and must not
                    // mutate it; nor does a node this parent has forked before,
                    // which its count says without a look at the entries.
                    for (run, _) in runs.iter().filter(|r| r.1 == Some(Share::Private)) {
                        pt.write_protect_at(slot, run.clone(), true, &mut log);
                    }
                    let arc = Arc::clone(pt.leaf_at(node, idx));
                    // Sharing the node shares its swap entries by identity —
                    // no slot refcount change, but the child's residency
                    // accounting must know they hold no frames.
                    let swapped = arc.swap_entries();
                    child.pt.attach_leaf(base, arc, kind == SlotKind::Dir, cycles, phys.cost())?;
                    child.swapped += swapped;
                    stats.pt_subtrees_shared += 1;
                    sink::instant("pt_subtree_share", "mem", cycles.total());
                    continue;
                }
                // The child's node for a slot of small PTEs. It is wired in
                // even when an entry fails, so that the rollback, which
                // destroys the child, drops the references its entries hold.
                let mut built = (kind == SlotKind::Small).then(LeafNode::new);
                let mut copied = Ok(());
                for (run, share) in runs.iter().filter_map(|(run, share)| Some((run.clone(), (*share)?))) {
                    let (done, result) = match built.as_mut() {
                        Some(built) => {
                            let leaf = Arc::get_mut(built).expect("a new node has one holder");
                            Self::fork_copy_run(pt.leaf_at(node, idx), leaf, run, share, eager, stats, phys, cycles)
                        }
                        None => {
                            let mut done = run.start;
                            let blocks = pt.slot_entries(slot).filter(|(j, ..)| run.contains(j));
                            let result = blocks.into_iter().try_for_each(|(j, vpn, pte)| {
                                Self::fork_copy_block(child, vpn, pte, share, eager, stats, phys, cycles)?;
                                done = j + 1;
                                Ok(())
                            });
                            (run.start..done, result)
                        }
                    };
                    // An eager fork copied the private frames: the parent
                    // keeps writing its own.
                    if share == Share::Private && !eager {
                        pt.write_protect_at(slot, done, true, &mut log);
                    }
                    copied = result;
                    if copied.is_err() {
                        break;
                    }
                }
                match built {
                    Some(built) if built.live() > 0 => {
                        child.swapped += built.swap_entries();
                        child.pt.install_leaf(base, built, cycles, phys.cost());
                    }
                    Some(built) => LeafNode::retire(built),
                    None => {}
                }
                copied?;
            }
            Ok(())
        })
    }

    /// Copies one run — the entries of a small-PTE node that one VMA
    /// covers, all inherited under `share` — from the parent's node into
    /// `leaf`, the node the walk is building for the child, and returns
    /// the part of the run that was copied with how the copy ended. A run
    /// is copied in a few passes, where the entries used to take a call
    /// each:
    ///
    /// 1. count the run's entries, by the node's occupancy map;
    /// 2. take what the child's entries hold: a reference on each frame
    ///    and on each swap slot the parent's hold ([`PhysMemory::retain`]),
    ///    a run of consecutive frames at a time (`LeafNode::frame_runs`) —
    ///    or, for an eager fork (`eager`) of a private run, a copy of each
    ///    frame instead ([`PhysMemory::copy_frames`]: one
    ///    [`FaultSite::FrameAlloc`] crossing a frame, made together), a
    ///    swapped page staying swapped;
    /// 3. cross [`FaultSite::PtNodeAlloc`] once per entry
    ///    ([`fpr_faults::cross_n`]), charge [`CostModel::pte_copy`] and
    ///    count `ptes_copied` for each entry *begun*;
    /// 4. write the child's entries — an eager copy's with their frames'
    ///    copies, a private mapping's otherwise write-protected and
    ///    COW-marked, a `MAP_SHARED` one's as they are.
    ///
    /// A crossing that fails at the run's entry *k* cuts the run short
    /// behind its first *k* entries: they are begun and copied, entry *k*
    /// is begun and not copied, and what was taken for it and for the
    /// entries after it is given back.
    #[allow(clippy::too_many_arguments)]
    fn fork_copy_run(
        parent: &LeafNode,
        leaf: &mut LeafNode,
        run: Range<usize>,
        share: Share,
        eager: bool,
        stats: &mut AsStats,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> (Range<usize>, MemResult<()>) {
        let (entries, pte_copy) = (parent.live_in(run.clone()), phys.cost().pte_copy);
        if entries == 0 {
            return (run, Ok(()));
        }
        let none = run.start..run.start;
        let eager = eager && share == Share::Private;
        let copies = match eager {
            false => phys.retain(parent.frame_runs(run.clone(), false), parent.swap_slots(run.clone())).map(|()| Vec::new()),
            // Swapped pages stay swapped: the child's entries share the slots.
            true => phys.swap_mut().retain(parent.swap_slots(run.clone())).and_then(|()| {
                let (frames, present) = (parent.frame_runs(run.clone(), false).ranges(), parent.present_in(run.clone()));
                phys.copy_frames(frames, present, cycles).inspect_err(|_| {
                    phys.swap_mut().release(parent.swap_slots(run.clone())).expect("slots just retained");
                })
            }),
        };
        let copies = match copies {
            Ok(copies) => copies,
            Err(e) => return (none, Err(e)),
        };
        stats.pages_eager_copied += copies.len() as u64;
        let crossed = fpr_faults::cross_n(FaultSite::PtNodeAlloc, entries);
        let (copied, begun) = match crossed {
            Ok(()) => (run, entries),
            Err((passed, _)) => {
                let copied = parent.first_in(run.clone(), passed);
                let rest = copied.end..run.end;
                // What was taken for the rest: its frames' copies, or
                // references on the frames; and on its slots.
                let kept = parent.present_in(copied.clone()) as usize;
                let shared = (!eager).then(|| parent.frame_runs(rest.clone(), false)).into_iter().flat_map(FrameRuns::ranges);
                let frames = copies.iter().skip(kept).map(|pfn| pfn.0..pfn.0 + 1).chain(shared);
                phys.release(frames, parent.swap_slots(rest), cycles).expect("references just taken");
                (copied, passed + 1)
            }
        };
        cycles.charge_n(pte_copy, begun);
        stats.ptes_copied += begun;
        if !eager {
            leaf.copy_run(parent, copied.clone(), share == Share::Private, |word| word);
        } else {
            // The copies are in the order of the present entries they copy.
            let mut copies = copies.into_iter();
            leaf.copy_run(parent, copied.clone(), false, |word| match LeafNode::unpack(word) {
                pte if pte.is_present() => LeafNode::pack(Pte { pfn: copies.next().expect("a copy a present entry"), ..pte }),
                _ => word,
            });
        }
        (copied, crossed.map_err(|_| MemError::OutOfMemory))
    }

    /// Copies one inherited 2 MiB block — a run of [`HUGE_PAGES`] frames —
    /// into the child's table, charged as one entry: `huge_cow` for the one
    /// flip of its PTE that shares it, and `map_huge` charges the child's
    /// entry write itself. A private block is shared write-protected and
    /// COW-marked, a `MAP_SHARED` one as it is; an eager fork of a private
    /// block copies it instead ([`Self::fork_eager_block`]). On `Err` the
    /// references taken for it have been dropped again.
    #[allow(clippy::too_many_arguments)]
    fn fork_copy_block(
        child: &mut AddressSpace,
        vpn: Vpn,
        pte: Pte,
        share: Share,
        eager: bool,
        stats: &mut AsStats,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        let copies = eager && share == Share::Private;
        let cost = phys.cost();
        cycles.charge(if copies { cost.pte_copy } else { cost.huge_cow });
        stats.ptes_copied += 1;
        if copies {
            return Self::fork_eager_block(child, stats, vpn, pte, phys, cycles);
        }
        phys.inc_ref_run(pte.pfn, HUGE_PAGES)?;
        let marks = share == Share::Private && (pte.is_writable() || pte.is_cow());
        let new = if marks { cow_marked(pte) } else { pte };
        let copied = child.pt.map_huge(vpn, new, phys.cost().pte_copy, cycles, phys.cost());
        copied.inspect_err(|_| phys.dec_ref_run(pte.pfn, HUGE_PAGES, cycles).expect("refs just taken"))
    }

    /// Eager-fork copy of one private block: into a fresh 512-frame run so
    /// the child stays huge — or, when physical memory is too fragmented
    /// for a run, into 512 frames taken as a run's copies are
    /// ([`PhysMemory::copy_frames`]) and a node of the block's own, with a
    /// [`FaultSite::PtNodeAlloc`] crossing an entry, while the parent keeps
    /// its block.
    fn fork_eager_block(
        child: &mut AddressSpace,
        stats: &mut AsStats,
        vpn: Vpn,
        pte: Pte,
        phys: &mut PhysMemory,
        cycles: &mut Cycles,
    ) -> MemResult<()> {
        let copy = match phys.alloc_zeroed_huge_run(cycles) {
            Ok(head) => {
                for k in 0..HUGE_PAGES {
                    let c = phys.content(Pfn(pte.pfn.0 + k))?;
                    phys.write_content(Pfn(head.0 + k), c)?;
                    cycles.charge(phys.cost().page_copy);
                }
                stats.pages_eager_copied += HUGE_PAGES;
                let copy = Pte { pfn: head, ..pte };
                if let Err(e) = child.pt.map_huge(vpn, copy, phys.cost().pte_copy, cycles, phys.cost()) {
                    phys.dec_ref_run(head, HUGE_PAGES, cycles).expect("run just allocated");
                    return Err(e);
                }
                return Ok(());
            }
            Err(MemError::Fragmented) => phys.copy_frames(std::iter::once(pte.pfn.0..pte.pfn.0 + HUGE_PAGES), HUGE_PAGES, cycles)?,
            Err(e) => return Err(e),
        };
        stats.pages_eager_copied += HUGE_PAGES;
        if fpr_faults::cross_n(FaultSite::PtNodeAlloc, HUGE_PAGES).is_err() {
            phys.release(copy.iter().map(|pfn| pfn.0..pfn.0 + 1), [], cycles).expect("frames just copied");
            return Err(MemError::OutOfMemory);
        }
        let flags = pte.flags.minus(PteFlags::HUGE);
        let mut built = LeafNode::new();
        let split = Arc::get_mut(&mut built).expect("a new node has one holder");
        for (k, pfn) in copy.into_iter().enumerate() {
            split.set(k, Some(Pte { pfn, flags }));
        }
        child.pt.install_leaf(vpn.0, built, cycles, phys.cost());
        Ok(())
    }
}

/// `pte` write-protected and marked copy-on-write.
fn cow_marked(mut pte: Pte) -> Pte {
    pte.flags = pte.flags.minus(PteFlags::WRITABLE).union(PteFlags::COW);
    pte
}

/// Convenience: an anonymous read-write heap VMA of `pages` pages at `start`.
pub fn heap_vma(start: Vpn, pages: u64) -> VmArea {
    VmArea::anon(start, pages, crate::vma::Prot::RW, VmaKind::Heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::vma::Prot;

    fn world(frames: u64) -> (PhysMemory, Cycles, TlbModel) {
        (
            PhysMemory::new(frames, CostModel::default()),
            Cycles::new(),
            TlbModel::new(),
        )
    }

    fn anon(start: u64, pages: u64) -> VmArea {
        VmArea::anon(Vpn(start), pages, Prot::RW, VmaKind::Mmap)
    }

    #[test]
    fn mmap_rejects_overlap_and_zero_len() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(10, 5), &mut phys, &mut cy).unwrap();
        assert_eq!(
            a.mmap(anon(12, 1), &mut phys, &mut cy),
            Err(MemError::Overlap)
        );
        assert_eq!(
            a.mmap(anon(20, 0), &mut phys, &mut cy),
            Err(MemError::BadAlignment)
        );
        assert_eq!(a.vma_count(), 1);
    }

    #[test]
    fn vma_at_finds_covering_area() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(10, 5), &mut phys, &mut cy).unwrap();
        a.mmap(anon(100, 2), &mut phys, &mut cy).unwrap();
        assert!(a.vma_at(Vpn(12)).is_some());
        assert!(a.vma_at(Vpn(15)).is_none());
        assert!(a.vma_at(Vpn(9)).is_none());
        assert_eq!(a.vma_at(Vpn(101)).unwrap().start, Vpn(100));
    }

    /// The sorted vector's searches at a mapping's first page, its last
    /// page and one past its end: `[10, 15)` with `[15, 17)` right after
    /// it, then a gap of three pages before `[20, 24)`.
    #[test]
    fn vma_searches_at_a_mappings_edges() {
        let mut a = AddressSpace::new();
        for (start, len) in [(20, 4), (10, 5), (15, 2)] {
            a.insert_vma(anon(start, len));
        }
        let starts: Vec<u64> = a.vmas().map(|v| v.start.0).collect();
        assert_eq!(starts, [10, 15, 20], "inserted out of order, kept in order");
        let at = |vpn| a.vma_at(Vpn(vpn)).map(|v| v.start.0);
        assert_eq!([at(9), at(10), at(14), at(15), at(16), at(17)], [None, Some(10), Some(10), Some(15), Some(15), None]);
        assert_eq!([at(20), at(23), at(24)], [Some(20), Some(20), None]);
        let overlaps = |vpn, pages| a.overlaps(Vpn(vpn), pages);
        assert!(overlaps(10, 1) && overlaps(23, 1) && overlaps(5, 6) && overlaps(17, 4));
        assert!(!overlaps(24, 1) && !overlaps(9, 1) && !overlaps(5, 5) && !overlaps(17, 3));
        let free = |pages, hint| a.find_free_range(pages, Vpn(hint));
        assert_eq!(free(1, 10), Ok(Vpn(17)), "from a first page");
        assert_eq!(free(3, 14), Ok(Vpn(17)), "from a last page, into a gap that fits");
        assert_eq!(free(4, 17), Ok(Vpn(24)), "past a gap that does not");
        assert_eq!(free(1, 23), Ok(Vpn(24)), "from the last mapping's last page");
        assert_eq!(free(1, 24), Ok(Vpn(24)), "one past the end is free");
        assert_eq!(free(2, 8), Ok(Vpn(8)), "ending on the page before a first page");
        assert_eq!(free(3, 8), Ok(Vpn(17)));
        let covers = |lo, hi| a.covers(Vpn(lo)..Vpn(hi));
        assert!(covers(10, 17) && covers(14, 16) && covers(20, 24) && covers(8, 8), "across a mapping's end into the next");
        assert!(!covers(9, 11) && !covers(14, 18) && !covers(17, 18) && !covers(23, 25) && !covers(30, 31));
    }

    #[test]
    fn find_free_range_skips_existing() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(10, 5), &mut phys, &mut cy).unwrap();
        a.mmap(anon(15, 5), &mut phys, &mut cy).unwrap();
        assert_eq!(a.find_free_range(3, Vpn(0)).unwrap(), Vpn(0));
        assert_eq!(a.find_free_range(3, Vpn(10)).unwrap(), Vpn(20));
        assert_eq!(a.find_free_range(3, Vpn(12)).unwrap(), Vpn(20));
    }

    /// The placement search as it was before the in-order walk: rescan
    /// every VMA for each conflicting run. Obviously first-fit, hopelessly
    /// quadratic — kept as the reference the walk must agree with.
    fn find_free_range_full_scan(a: &AddressSpace, pages: u64, hint: Vpn) -> MemResult<Vpn> {
        let mut candidate = hint.0;
        loop {
            if !Vpn(candidate + pages.saturating_sub(1)).is_user() {
                return Err(MemError::Fragmented);
            }
            let conflict = a
                .vmas()
                .filter(|v| v.overlaps(Vpn(candidate), pages))
                .map(|v| v.end().0)
                .max();
            match conflict {
                None => return Ok(Vpn(candidate)),
                Some(end) => candidate = end,
            }
        }
    }

    /// Lays VMAs of 1..=`max_len` pages upward from `base`, separated by
    /// gaps of 0..=`max_gap` pages (a zero gap makes a back-to-back run).
    fn scattered(
        rng: &mut fpr_rng::Rng,
        base: u64,
        n: u64,
        max_len: u64,
        max_gap: u64,
    ) -> AddressSpace {
        let mut a = AddressSpace::new();
        let mut at = base;
        for _ in 0..n {
            at += rng.gen_below(max_gap + 1);
            let len = rng.gen_range(1, max_len + 1);
            a.insert_vma(anon(at, len));
            at += len;
        }
        a
    }

    /// Both searches, and both overlap predicates, on one query.
    fn assert_agrees(a: &AddressSpace, pages: u64, hint: u64, ctx: &str) {
        assert_eq!(
            a.find_free_range(pages, Vpn(hint)),
            find_free_range_full_scan(a, pages, Vpn(hint)),
            "{ctx}: {pages} pages from {hint:#x}"
        );
        assert_eq!(
            a.overlaps(Vpn(hint), pages),
            a.vmas().any(|v| v.overlaps(Vpn(hint), pages)),
            "{ctx}: overlap of {pages} pages at {hint:#x}"
        );
    }

    #[test]
    fn find_free_range_matches_full_scan_on_random_sets() {
        const CEILING: u64 = crate::addr::USER_VA_END >> crate::addr::PAGE_SHIFT;
        for case in 0..64u64 {
            let mut rng = fpr_rng::Rng::seed_from_u64(0xF1_0000 + case);
            // Odd cases: gaps of 0..=3 pages, mostly smaller than the
            // request; even cases: roomier sets where most gaps fit.
            let max_gap = if case % 2 == 1 { 3 } else { 24 };
            // Every fourth set sits right under the user-space ceiling.
            let base = if case % 4 == 3 { CEILING - 600 } else { 0x1000 };
            let a = scattered(&mut rng, base, 48, 8, max_gap);
            let top = a.vmas().last().unwrap().end().0;
            for _ in 0..200 {
                let pages = rng.gen_range(1, 13);
                let hint = rng.gen_range(base.saturating_sub(16), (top + 16).min(CEILING));
                assert_agrees(&a, pages, hint, &format!("case {case}"));
            }
            // Hints on every VMA boundary, where off-by-ones live.
            for v in a.vmas() {
                for hint in [v.start.0 - 1, v.start.0, v.end().0 - 1, v.end().0] {
                    assert_agrees(&a, 4, hint, &format!("case {case} boundary"));
                }
            }
        }
    }

    #[test]
    fn find_free_range_edges() {
        const CEILING: u64 = crate::addr::USER_VA_END >> crate::addr::PAGE_SHIFT;
        // A back-to-back run straight from the hint is skipped whole.
        let mut a = AddressSpace::new();
        for i in 0..32 {
            a.insert_vma(anon(100 + 2 * i, 2));
        }
        assert_eq!(a.find_free_range(2, Vpn(100)), Ok(Vpn(164)));
        assert_agrees(&a, 2, 100, "run");
        // A hint inside a VMA that starts below it.
        assert_eq!(a.find_free_range(1, Vpn(101)), Ok(Vpn(164)));
        // Gaps smaller than the request are passed over, the first that
        // fits is taken.
        let mut a = AddressSpace::new();
        for (start, len) in [(10, 5), (17, 3), (23, 1), (30, 2)] {
            a.insert_vma(anon(start, len));
        }
        assert_eq!(a.find_free_range(2, Vpn(10)), Ok(Vpn(15)));
        assert_eq!(a.find_free_range(3, Vpn(10)), Ok(Vpn(20)));
        assert_eq!(a.find_free_range(4, Vpn(10)), Ok(Vpn(24)));
        assert_eq!(a.find_free_range(7, Vpn(10)), Ok(Vpn(32)));
        for pages in 1..10 {
            assert_agrees(&a, pages, 10, "gaps");
        }
        // The ceiling: the last fitting run is found, one page more is
        // `Fragmented`, with and without a mapping in the way.
        let mut a = AddressSpace::new();
        assert_eq!(a.find_free_range(8, Vpn(CEILING - 8)), Ok(Vpn(CEILING - 8)));
        assert_eq!(a.find_free_range(9, Vpn(CEILING - 8)), Err(MemError::Fragmented));
        a.insert_vma(anon(CEILING - 8, 4));
        assert_eq!(a.find_free_range(4, Vpn(CEILING - 10)), Ok(Vpn(CEILING - 4)));
        assert_eq!(a.find_free_range(5, Vpn(CEILING - 10)), Err(MemError::Fragmented));
        for pages in 1..8 {
            assert_agrees(&a, pages, CEILING - 10, "ceiling");
        }
    }

    #[test]
    fn placing_4096_mappings_ends_in_the_reference_bases() {
        // Two spaces filled independently, one by each search, from hints
        // cycling over 512 arenas (so the reference's rescans stay short
        // enough to run here).
        let mut rng = fpr_rng::Rng::seed_from_u64(0xF1_4096);
        let (mut walked, mut scanned) = (AddressSpace::new(), AddressSpace::new());
        for i in 0..4096u64 {
            let pages = rng.gen_range(1, 5);
            let hint = Vpn(0x10_0000 + (i % 512) * 1024);
            let w = walked.find_free_range(pages, hint).unwrap();
            let s = find_free_range_full_scan(&scanned, pages, hint).unwrap();
            walked.insert_vma(anon(w.0, pages));
            scanned.insert_vma(anon(s.0, pages));
        }
        assert_eq!(walked.vmas, scanned.vmas);
        // `make_parent`'s shape: every mapping from one hint, so the n-th
        // placement skips a run of n. The reference is cubic over the
        // whole build; consult it on the same space halfway and at the end.
        let mut a = AddressSpace::new();
        for i in 0..4096u64 {
            if i == 2047 || i == 4095 {
                assert_agrees(&a, 2, 0x10_0000, "single hint");
            }
            let base = a.find_free_range(2, Vpn(0x10_0000)).unwrap();
            assert_eq!(base, Vpn(0x10_0000 + 2 * i));
            a.insert_vma(anon(base.0, 2));
        }
    }

    #[test]
    fn populate_makes_resident_and_observe_reads_zero() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(0, 8), &mut phys, &mut cy).unwrap();
        assert_eq!(a.resident_pages(), 0);
        a.populate(Vpn(0), 8, &mut phys, &mut cy).unwrap();
        assert_eq!(a.resident_pages(), 8);
        assert_eq!(a.observe(Vpn(3), &phys), Ok(0));
        assert_eq!(a.observe(Vpn(9), &phys), Err(MemError::NotMapped));
    }

    #[test]
    fn munmap_splits_straddling_vma() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(0, 10), &mut phys, &mut cy).unwrap();
        a.populate(Vpn(0), 10, &mut phys, &mut cy).unwrap();
        let released = a
            .munmap(Vpn(3), 4, &mut phys, &mut cy, &mut tlb, 1)
            .unwrap();
        assert_eq!(released, 4);
        assert_eq!(a.vma_count(), 2);
        assert!(a.vma_at(Vpn(2)).is_some());
        assert!(a.vma_at(Vpn(3)).is_none());
        assert!(a.vma_at(Vpn(6)).is_none());
        assert!(a.vma_at(Vpn(7)).is_some());
        assert_eq!(a.resident_pages(), 6);
        assert_eq!(phys.used_frames(), 6);
    }

    #[test]
    fn destroy_releases_all_frames() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(0, 10), &mut phys, &mut cy).unwrap();
        a.populate(Vpn(0), 10, &mut phys, &mut cy).unwrap();
        a.destroy(&mut phys, &mut cy);
        assert_eq!(phys.used_frames(), 0);
        assert_eq!(a.resident_pages(), 0);
    }

    #[test]
    fn commit_charge_counts_private_writable_only() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(0, 10), &mut phys, &mut cy).unwrap(); // RW private: 10
        let mut ro = VmArea::anon(Vpn(20), 5, Prot::R, VmaKind::Text);
        ro.backing = Backing::File {
            file_id: 1,
            page_offset: 0,
        };
        a.mmap(ro, &mut phys, &mut cy).unwrap(); // RO file: 0
        assert_eq!(a.commit_pages(), 10);
    }

    #[test]
    fn slide_vma_moves_resident_pages_without_copying_frames() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(100, 8), &mut phys, &mut cy).unwrap();
        a.populate(Vpn(100), 4, &mut phys, &mut cy).unwrap();
        let pte_before = a.translate(Vpn(102)).unwrap();
        let frames_before = phys.used_frames();
        let refs_before = phys.refs(pte_before.pfn).unwrap();
        let moved = a
            .slide_vma(Vpn(100), Vpn(5000), &mut phys, &mut cy)
            .unwrap();
        assert_eq!(moved, 4);
        assert!(a.vma_at(Vpn(100)).is_none());
        assert_eq!(a.vma_at(Vpn(5003)).unwrap().start, Vpn(5000));
        assert_eq!(a.translate(Vpn(102)), None);
        assert_eq!(a.translate(Vpn(5002)), Some(pte_before), "same frame, same flags");
        assert_eq!(phys.used_frames(), frames_before, "no frames copied or freed");
        assert_eq!(phys.refs(pte_before.pfn).unwrap(), refs_before);
        assert_eq!(a.resident_pages(), 4);
    }

    #[test]
    fn slide_vma_rejects_occupied_destination_and_missing_source() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(100, 8), &mut phys, &mut cy).unwrap();
        a.mmap(anon(200, 4), &mut phys, &mut cy).unwrap();
        assert_eq!(
            a.slide_vma(Vpn(100), Vpn(198), &mut phys, &mut cy),
            Err(MemError::Overlap)
        );
        assert_eq!(
            a.slide_vma(Vpn(101), Vpn(400), &mut phys, &mut cy),
            Err(MemError::NotMapped),
            "source must be an exact VMA start"
        );
        assert_eq!(a.vma_at(Vpn(100)).unwrap().start, Vpn(100), "space unchanged");
    }

    #[test]
    fn slide_vma_charges_per_moved_pte() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(0, 8), &mut phys, &mut cy).unwrap();
        a.populate(Vpn(0), 8, &mut phys, &mut cy).unwrap();
        let cost = phys.cost().clone();
        let before = cy.total();
        a.slide_vma(Vpn(0), Vpn(1024), &mut phys, &mut cy)
            .unwrap();
        // 8 PTE moves plus one fresh leaf + intermediate nodes at the
        // destination (the source leaf is reclaimed, not re-priced).
        let delta = cy.total() - before;
        assert!(delta >= 8 * cost.pte_copy);
        assert!(delta <= 8 * cost.pte_copy + 4 * cost.pt_node_alloc);
    }

    #[test]
    fn slide_vma_into_a_node_a_fork_shares_unshares_it() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(0, 4), &mut phys, &mut cy).unwrap();
        a.mmap(anon(100, 4), &mut phys, &mut cy).unwrap();
        a.populate(Vpn(0), 4, &mut phys, &mut cy).unwrap();
        a.populate(Vpn(100), 4, &mut phys, &mut cy).unwrap();
        let mut child =
            AddressSpace::fork_from(&mut a, ForkMode::OnDemand, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        // Source and destination lie in the one leaf node both spaces hold.
        assert_eq!(a.slide_vma(Vpn(0), Vpn(200), &mut phys, &mut cy), Ok(4));
        assert_eq!(a.stats.pt_unshares, 1);
        assert!(a.translate(Vpn(200)).is_some() && a.translate(Vpn(0)).is_none());
        assert!(child.translate(Vpn(0)).is_some() && child.translate(Vpn(200)).is_none());
        child.destroy(&mut phys, &mut cy);
        a.destroy(&mut phys, &mut cy);
        assert_eq!(phys.used_frames(), 0);
    }

    #[test]
    fn slide_vma_of_part_of_a_huge_block_splits_the_block() {
        let (mut phys, mut cy, mut tlb) = world(2048);
        let mut a = AddressSpace::new();
        a.set_thp(true);
        a.mmap(anon(1024, 512), &mut phys, &mut cy).unwrap();
        a.populate(Vpn(1024), 512, &mut phys, &mut cy).unwrap();
        assert_eq!(a.huge_pages(), 1);
        a.write(Vpn(1030), 77, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        a.set_fork_policy(Vpn(1028), 4, |p| p.wipe_on_fork = true).unwrap();
        assert_eq!(a.slide_vma(Vpn(1028), Vpn(9000), &mut phys, &mut cy), Ok(4));
        assert_eq!(a.huge_pages(), 0);
        assert_eq!(a.observe(Vpn(9002), &phys), Ok(77));
        assert_eq!(a.resident_pages(), 512);
        a.destroy(&mut phys, &mut cy);
        assert_eq!(phys.used_frames(), 0);
    }

    #[test]
    fn map_shared_frame_installs_cow_mapping_over_pinned_frame() {
        let (mut phys, mut cy, mut tlb) = world(64);
        // Donor page, resident, with a kernel pin as the image cache takes.
        let mut donor = AddressSpace::new();
        donor.mmap(anon(0, 1), &mut phys, &mut cy).unwrap();
        donor.populate(Vpn(0), 1, &mut phys, &mut cy).unwrap();
        let pfn = donor.translate(Vpn(0)).unwrap().pfn;
        phys.pin(pfn).unwrap();

        let mut child = AddressSpace::new();
        child.mmap(anon(100, 1), &mut phys, &mut cy).unwrap();
        child
            .map_shared_frame(Vpn(100), pfn, false, &mut phys, &mut cy)
            .unwrap();
        let pte = child.translate(Vpn(100)).unwrap();
        assert_eq!(pte.pfn, pfn);
        assert!(pte.is_cow() && !pte.is_writable());
        assert!(pte.flags.contains(PteFlags::NX), "data mapping is NX");
        assert_eq!(phys.refs(pfn).unwrap(), 3, "donor map + pin + child map");
        // Double-map of the same page is rejected, space intact.
        assert_eq!(
            child.map_shared_frame(Vpn(100), pfn, false, &mut phys, &mut cy),
            Err(MemError::Overlap)
        );
        assert_eq!(phys.refs(pfn).unwrap(), 3, "failed map returned its ref");
        // The child's first write breaks the share with a private copy.
        child.write(Vpn(100), 7, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        assert_ne!(child.translate(Vpn(100)).unwrap().pfn, pfn);
        assert_eq!(phys.refs(pfn).unwrap(), 2);
    }

    #[test]
    fn cow_protect_page_is_free_and_forces_copy_on_next_write() {
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut a = AddressSpace::new();
        a.mmap(anon(0, 2), &mut phys, &mut cy).unwrap();
        a.write(Vpn(0), 5, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        let pfn = a.translate(Vpn(0)).unwrap().pfn;
        let before = cy.total();
        let pte = a.cow_protect_page(Vpn(0), &mut phys, &mut cy).unwrap();
        assert_eq!(cy.total(), before, "permission tightening is free");
        assert!(pte.is_cow() && !pte.is_writable());
        // Pin the frame as the cache would; the donor's next write must
        // copy (the pinned original keeps the cached content) rather than
        // reuse the frame in place.
        phys.pin(pfn).unwrap();
        a.write(Vpn(0), 9, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        assert_ne!(a.translate(Vpn(0)).unwrap().pfn, pfn);
        assert_eq!(phys.content(pfn), Ok(5), "cached frame unchanged");
        assert_eq!(a.observe(Vpn(0), &phys), Ok(9));
        assert_eq!(
            a.cow_protect_page(Vpn(1), &mut phys, &mut cy),
            Err(MemError::NotMapped),
            "non-resident page cannot donate"
        );
    }

    #[test]
    fn swap_entries_follow_every_fork_mode() {
        for mode in [ForkMode::Cow, ForkMode::OnDemand, ForkMode::Eager] {
            let (mut phys, mut cy, mut tlb) = world(64);
            phys.set_swap_capacity(8);
            let mut parent = AddressSpace::new();
            parent.mmap(anon(0, 8), &mut phys, &mut cy).unwrap();
            for i in 0..8 {
                parent.write(Vpn(i), 100 + i, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            }
            for vpn in [Vpn(1), Vpn(4), Vpn(6)] {
                let slot = phys.swap_out_page(100 + vpn.0, &mut cy).unwrap();
                parent.swap_out_commit(vpn, slot, &mut phys, &mut cy);
            }
            let mut child =
                AddressSpace::fork_from(&mut parent, mode, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            // Shared with the node or copied entry by entry, the child's
            // swap entries are counted: mapped, not resident.
            assert_eq!((child.swapped_pages(), child.resident_pages()), (3, 5), "{mode:?}");
            assert_eq!(child.check_page_table(), Ok(()), "{mode:?}");
            // Reading one back privatizes an on-demand child's node first.
            assert_eq!(child.read(Vpn(4), &mut phys, &mut cy).unwrap().0, 104, "{mode:?}");
            assert_eq!((child.swapped_pages(), child.resident_pages()), (2, 6), "{mode:?}");
            assert_eq!(parent.swapped_pages(), 3, "{mode:?}");
            for space in [&mut child, &mut parent] {
                assert_eq!(space.check_page_table(), Ok(()), "{mode:?}");
                space.destroy(&mut phys, &mut cy);
            }
            assert_eq!((phys.used_frames(), phys.swap().used_slots()), (0, 0), "{mode:?}");
        }
    }

    /// The node walk reads what the per-entry walks read: every frame and
    /// swap slot of a space once, a node an on-demand fork shares under one
    /// identity in both spaces, and of each span of entries what `vma_at`
    /// says of its pages — with a mapping taken out from under the table too.
    #[test]
    fn leaf_slots_read_what_the_per_entry_walks_read() {
        for thp in [false, true] {
            let (mut phys, mut cy, mut tlb) = world(4096);
            phys.set_swap_capacity(16);
            let mut parent = AddressSpace::new();
            parent.set_thp(thp);
            for area in [anon(0, 512), anon(1024, 100), anon(1124, 50)] {
                parent.mmap(area, &mut phys, &mut cy).unwrap();
            }
            for (start, pages) in [(0, 512), (1024, 60), (1100, 74)] {
                parent.populate(Vpn(start), pages, &mut phys, &mut cy).unwrap();
            }
            for vpn in [Vpn(1030), Vpn(1031), Vpn(1140)] {
                parent.write(vpn, vpn.0, &mut phys, &mut cy, &mut tlb, 1).unwrap();
                let slot = phys.swap_out_page(vpn.0, &mut cy).unwrap();
                parent.swap_out_commit(vpn, slot, &mut phys, &mut cy);
            }
            assert_eq!(parent.huge_pages(), u64::from(thp));
            let mut child =
                AddressSpace::fork_from(&mut parent, ForkMode::OnDemand, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            let shared = |space: &AddressSpace| -> Vec<usize> { space.leaf_slots().filter_map(|leaf| leaf.shared()).collect() };
            for space in [&parent, &child] {
                let mut runs: Vec<u64> = space.leaf_slots().flat_map(|leaf| leaf.frame_runs().flatten()).collect();
                let mut frames = Vec::new();
                space.for_each_resident(|_, pte| frames.push(pte.pfn.0));
                runs.sort();
                frames.sort();
                assert_eq!(runs, frames, "thp {thp}");
                let slots: Vec<u64> = space.leaf_slots().flat_map(|leaf| leaf.swap_slots()).collect();
                let mut named = Vec::new();
                space.for_each_swap_entry_keyed(|_, _, slot| named.push(slot));
                assert_eq!((slots.len(), &slots), (3, &named), "thp {thp}");
                // Small-page nodes are shared; a lone block is the table's own.
                assert_eq!(shared(space).len(), if thp { 1 } else { 2 }, "thp {thp}");
            }
            assert_eq!(shared(&parent), shared(&child), "a node under one identity in both");

            // A copy of the table without the mapping at 1 124.
            let mut torn = parent.clone();
            torn.vmas.remove(2);
            for space in [&parent, &torn] {
                for span in space.leaf_slots().flat_map(|leaf| leaf.spans().collect::<Vec<_>>()) {
                    let each = (span.start.0..span.end.0).all(|vpn| space.vma_at(Vpn(vpn)).is_some());
                    assert_eq!(space.covers(span.clone()), each, "thp {thp}, span {span:?}");
                }
            }
            let uncovered = |space: &AddressSpace| space.leaf_slots().flat_map(|leaf| leaf.spans().collect::<Vec<_>>()).filter(|span| !space.covers(span.clone())).count();
            assert_eq!((uncovered(&parent), uncovered(&torn)), (0, 1), "thp {thp}");
            drop(torn);
            for space in [&mut child, &mut parent] {
                space.destroy(&mut phys, &mut cy);
            }
            assert_eq!((phys.used_frames(), phys.swap().used_slots()), (0, 0));
        }
    }

    #[test]
    fn mprotect_flushes_no_swap_entry() {
        for thp in [false, true] {
            let (mut phys, mut cy, mut tlb) = world(64);
            phys.set_swap_capacity(8);
            let mut a = AddressSpace::new();
            a.set_thp(thp);
            a.mmap(anon(0, 4), &mut phys, &mut cy).unwrap();
            for i in 0..4 {
                a.write(Vpn(i), 100 + i, &mut phys, &mut cy, &mut tlb, 1).unwrap();
            }
            for vpn in [Vpn(1), Vpn(2)] {
                let slot = phys.swap_out_page(100 + vpn.0, &mut cy).unwrap();
                a.swap_out_commit(vpn, slot, &mut phys, &mut cy);
            }
            let flushed = |tlb: &TlbModel| (tlb.shootdowns, tlb.entries_flushed);
            // Swap entries alone: nothing of them was ever in a TLB.
            let before = flushed(&tlb);
            a.mprotect(Vpn(1), 2, Prot::R, &mut cy, &mut phys, &mut tlb, 2).unwrap();
            assert_eq!(flushed(&tlb), before, "thp {thp}");
            // Beside the two pages still resident, only those are flushed.
            a.mprotect(Vpn(0), 4, Prot::R, &mut cy, &mut phys, &mut tlb, 2).unwrap();
            let after = flushed(&tlb);
            assert_eq!((after.0 - before.0, after.1 - before.1), (1, if thp { 2 } else { 0 }), "thp {thp}");
            assert_eq!(a.observe(Vpn(2), &phys), Ok(102));
            a.destroy(&mut phys, &mut cy);
            assert_eq!((phys.used_frames(), phys.swap().used_slots()), (0, 0));
        }
    }

    #[test]
    fn eager_fork_splits_a_block_when_no_run_is_free() {
        // The parent's block takes one 512-frame window of 1 536 frames;
        // 1 024 small pages (which the child is not to inherit) fill the
        // rest, and unmapping every other one leaves 512 frames free with
        // no two of them adjacent.
        let (mut phys, mut cy, mut tlb) = world(1536);
        let mut parent = AddressSpace::new();
        parent.set_thp(true);
        parent.mmap(anon(0, 512), &mut phys, &mut cy).unwrap();
        parent.populate(Vpn(0), 512, &mut phys, &mut cy).unwrap();
        parent.write(Vpn(7), 77, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        assert_eq!(parent.huge_pages(), 1);
        parent.set_thp(false);
        parent.mmap(anon(4096, 1024), &mut phys, &mut cy).unwrap();
        parent.populate(Vpn(4096), 1024, &mut phys, &mut cy).unwrap();
        parent.set_fork_policy(Vpn(4096), 1024, |p| p.dont_fork = true).unwrap();
        for vpn in (4096..5120).step_by(2) {
            parent.munmap(Vpn(vpn), 1, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        }
        let before = phys.used_frames();
        assert_eq!(phys.free_frames(), 512);

        // Fails clean halfway through the 512 page copies ...
        let plan = fpr_faults::FaultPlan::passive().fail_at(FaultSite::FrameAlloc, 200);
        let (failed, _) = fpr_faults::with_plan(plan, || {
            AddressSpace::fork_from(&mut parent, ForkMode::Eager, &mut phys, &mut cy, &mut tlb, 1)
        });
        assert_eq!(failed.err(), Some(MemError::OutOfMemory));
        assert_eq!(phys.used_frames(), before, "the half-built node's frames came back");

        // ... and otherwise leaves the child 512 small pages of its own.
        let mut child =
            AddressSpace::fork_from(&mut parent, ForkMode::Eager, &mut phys, &mut cy, &mut tlb, 1)
                .unwrap();
        assert_eq!((parent.huge_pages(), child.huge_pages()), (1, 0));
        assert_eq!(child.resident_pages(), 512);
        assert_eq!(phys.used_frames(), before + 512);
        assert_eq!(child.observe(Vpn(7), &phys), Ok(77));
        for space in [&mut child, &mut parent] {
            assert_eq!(space.check_page_table(), Ok(()));
            space.destroy(&mut phys, &mut cy);
        }
        assert_eq!(phys.used_frames(), 0);
    }

    #[test]
    fn split_at_preserves_file_offsets() {
        let (mut phys, mut cy, _) = world(64);
        let mut a = AddressSpace::new();
        let mut v = VmArea::anon(Vpn(100), 10, Prot::R, VmaKind::Text);
        v.backing = Backing::File {
            file_id: 3,
            page_offset: 5,
        };
        a.mmap(v, &mut phys, &mut cy).unwrap();
        let before = a.observe(Vpn(107), &phys).unwrap();
        a.split_at(Vpn(104));
        assert_eq!(a.vma_count(), 2);
        assert_eq!(a.observe(Vpn(107), &phys).unwrap(), before);
    }

    /// A munmap or mprotect refused when it comes to privatize a node an
    /// on-demand fork shares leaves every mapping as it was: not cut at the
    /// range's ends, and not reprotected. The mapping is `MAP_SHARED`, so
    /// that the shared node keeps writable entries for mprotect to take.
    #[test]
    fn refused_range_operations_leave_the_mappings_as_they_were() {
        use fpr_faults::{with_plan, FaultPlan};
        let (mut phys, mut cy, mut tlb) = world(64);
        let mut a = AddressSpace::new();
        let mut shared = anon(0, 16);
        shared.share = Share::Shared;
        a.mmap(shared, &mut phys, &mut cy).unwrap();
        for vpn in 0..16 {
            a.write(Vpn(vpn), vpn, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        }
        let mut child = AddressSpace::fork_from(&mut a, ForkMode::OnDemand, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        let layout = |a: &AddressSpace| a.vmas().map(|v| (v.start.0, v.pages, v.prot)).collect::<Vec<_>>();
        let before = layout(&a);
        let refuse = || FaultPlan::passive().fail_at(FaultSite::PtUnshare, 0);
        let (r, _) = with_plan(refuse(), || a.munmap(Vpn(4), 4, &mut phys, &mut cy, &mut tlb, 1));
        assert_eq!(r, Err(MemError::OutOfMemory));
        assert_eq!(layout(&a), before, "a refused munmap cut the mapping");
        let (r, _) = with_plan(refuse(), || a.mprotect(Vpn(4), 4, Prot::R, &mut cy, &mut phys, &mut tlb, 1));
        assert_eq!(r, Err(MemError::OutOfMemory));
        assert_eq!(layout(&a), before, "a refused mprotect cut or reprotected the mapping");
        a.write(Vpn(5), 55, &mut phys, &mut cy, &mut tlb, 1).unwrap();
        assert_eq!(child.observe(Vpn(5), &phys), Ok(55));
        for space in [&mut child, &mut a] {
            space.destroy(&mut phys, &mut cy);
        }
        assert_eq!(phys.used_frames(), 0);
    }
}
