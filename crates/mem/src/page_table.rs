//! Four-level radix page table with refcount-shared leaf subtrees and
//! 2 MiB huge leaves.
//!
//! Intermediate nodes (levels 3..1) live in an arena (`Vec`) indexed by
//! `u32`, which keeps the structure compact; the arena plays the role of
//! the physical frames that would hold page-table nodes on real hardware.
//! The bottom level is different: each 512-entry block of leaf PTEs lives
//! in a reference-counted `LeafNode`, so an on-demand fork can hand the
//! *same* leaf subtree to parent and child by bumping a refcount instead
//! of copying 512 entries. A shared node is immutable (enforced with
//! `Arc::get_mut`); the owner must privatize the leaf (the private
//! `privatize_leaf` operation) before mutating, which is the deferred
//! copy the fault path performs.
//!
//! Huge mappings take two forms, mirroring x86-64's PS bit at the PMD
//! and the way Linux's khugepaged collapses page tables:
//!
//! * a **lone huge leaf** (`Entry::Huge`) sits in a level-1 slot where a
//!   `LeafNode` would otherwise hang: one PTE maps a naturally aligned
//!   512-frame run, covering the node's whole 2 MiB span;
//! * a **huge directory** is a `LeafNode` attached one level up (a
//!   level-2 slot) whose present PTEs are all huge, so the node spans
//!   1 GiB. Directories are formed by `PageTable::try_collapse` when a
//!   level-1 node becomes all-huge, and — being ordinary `Arc`'d leaf
//!   nodes — they ride the on-demand fork's subtree-sharing fast path:
//!   forking 1 GiB of huge mappings is one pointer copy.
//!
//! Promotion (`PageTable::promote_block`) swaps a full, physically
//! contiguous small-PTE leaf for a lone huge leaf; demotion
//! (`PageTable::demote_block`) splits a huge leaf back into 512 small
//! PTEs (degrouping its directory first if needed), which partial unmap,
//! partial mprotect, and COW of a shared block require before they can
//! operate at page granularity.
//!
//! Intermediate nodes are created lazily on [`PageTable::map`] and torn
//! down eagerly when their last entry is removed, so the node count always
//! reflects the mapped footprint — the quantity an eager fork must copy.

use crate::addr::{Pfn, Vpn, HUGE_PAGES, PT_ENTRIES, PT_LEVELS};
use crate::cost::{CostModel, Cycles};
use crate::error::{MemError, MemResult};
use crate::pte::{Pte, PteFlags};
use fpr_faults::FaultSite;
use std::sync::Arc;

/// One entry of an intermediate page-table node.
#[derive(Debug, Clone)]
enum Entry {
    /// Empty slot.
    None,
    /// Pointer to a lower-level intermediate node (arena index).
    Table(u32),
    /// A (possibly shared) 512-entry leaf subtree. At a level-1 slot the
    /// PTEs are small; at a level-2 slot this is a huge directory whose
    /// PTEs are all 2 MiB blocks.
    Leaf(Arc<LeafNode>),
    /// A lone 2 MiB huge leaf in a level-1 slot: one PTE whose frame is
    /// the head of a naturally aligned 512-frame run.
    Huge(Pte),
}

/// One 512-entry intermediate page-table node.
#[derive(Debug, Clone)]
struct Node {
    entries: Box<[Entry; PT_ENTRIES]>,
    /// Number of non-`None` entries, for eager teardown.
    live: u16,
}

impl Node {
    fn new() -> Node {
        Node {
            entries: Box::new(std::array::from_fn(|_| Entry::None)),
            live: 0,
        }
    }
}

/// What a [`LeafNode`] keeps count of beside its entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LeafCounts {
    /// Entries (present PTEs and swap entries).
    live: u16,
    /// Entries that are writable and not `MAP_SHARED`: what sharing the
    /// node for the first time must write-protect and COW-mark. Zero in
    /// every node that is shared.
    private_writable: u16,
    /// Swap entries: mapped, but not resident.
    swap_entries: u16,
}

impl LeafCounts {
    /// Adds (`sign` = 1) or removes (−1) `pte`'s share of the counts.
    fn add(&mut self, pte: Option<Pte>, sign: i16) {
        let Some(pte) = pte else { return };
        self.live = self.live.wrapping_add_signed(sign);
        if pte.is_writable() && !pte.flags.contains(PteFlags::SHARED) {
            self.private_writable = self.private_writable.wrapping_add_signed(sign);
        }
        if pte.is_swap() {
            self.swap_entries = self.swap_entries.wrapping_add_signed(sign);
        }
    }
}

/// A 512-entry block of leaf PTEs, shareable between page tables.
///
/// `Arc::strong_count > 1` means the subtree is shared by an on-demand
/// fork and must be privatized before any mutation.
///
/// Beside its entries a node keeps three counts of them, so that the fork
/// walk can share it without reading one: how many there are, how many a
/// first share still has to COW-mark, and how many hold no frame. Every
/// write goes through [`LeafNode::set`], which keeps the counts;
/// [`PageTable::check_summaries`] recounts them.
#[derive(Debug, Clone)]
pub(crate) struct LeafNode {
    ptes: Box<[Option<Pte>; PT_ENTRIES]>,
    counts: LeafCounts,
}

impl LeafNode {
    pub(crate) fn new() -> LeafNode {
        LeafNode {
            ptes: Box::new([None; PT_ENTRIES]),
            counts: LeafCounts::default(),
        }
    }

    /// The entries, by in-node index.
    pub(crate) fn ptes(&self) -> &[Option<Pte>; PT_ENTRIES] {
        &self.ptes
    }

    /// Number of entries.
    pub(crate) fn live(&self) -> u64 {
        self.counts.live as u64
    }

    /// Number of entries a first share has to COW-mark.
    pub(crate) fn private_writable(&self) -> u64 {
        self.counts.private_writable as u64
    }

    /// Number of swap entries.
    pub(crate) fn swap_entries(&self) -> u64 {
        self.counts.swap_entries as u64
    }

    /// Present PTEs in ascending in-node order.
    pub(crate) fn present(&self) -> Vec<Pte> {
        self.ptes.iter().flatten().copied().collect()
    }

    /// Writes entry `j` — the one way an entry changes — and returns what
    /// it held.
    pub(crate) fn set(&mut self, j: usize, pte: Option<Pte>) -> Option<Pte> {
        let old = std::mem::replace(&mut self.ptes[j], pte);
        self.counts.add(old, -1);
        self.counts.add(pte, 1);
        old
    }

    /// The per-entry step of [`PageTable::map`] on a node that is not wired
    /// into a table yet: fork builds a child's node in place and installs
    /// it with [`PageTable::install_leaf`]. Crosses
    /// [`FaultSite::PtNodeAlloc`] where `map` does, once per entry, so a
    /// fork's fail points do not depend on how the child's table is built.
    #[inline]
    pub(crate) fn map(&mut self, j: usize, pte: Pte) -> MemResult<()> {
        fpr_faults::cross(FaultSite::PtNodeAlloc).map_err(|_| MemError::OutOfMemory)?;
        debug_assert!(self.ptes[j].is_none(), "entry mapped twice");
        self.set(j, Some(pte));
        Ok(())
    }
}

/// What occupies a leaf-bearing slot, as reported by
/// [`PageTable::leaf_slots_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotKind {
    /// A small-PTE leaf node at a level-1 slot (2 MiB span).
    Small,
    /// A huge directory at a level-2 slot (1 GiB span, all-huge PTEs).
    Dir,
    /// A lone huge PTE at a level-1 slot (2 MiB block).
    Huge,
}

impl SlotKind {
    /// Pages between consecutive entries of the slot's node: a directory's
    /// entries are 2 MiB blocks, everything else steps by one page.
    pub(crate) fn stride(self) -> u64 {
        match self {
            SlotKind::Dir => HUGE_PAGES,
            SlotKind::Small | SlotKind::Huge => 1,
        }
    }
}

/// Coordinates of one leaf-bearing slot: `(base VPN, arena node, slot
/// index, kind)`.
pub(crate) type Slot = (u64, u32, usize, SlotKind);

/// One drained leaf from [`PageTable::take_leaves`].
#[derive(Debug)]
pub(crate) enum TakenLeaf {
    /// A leaf node: small PTEs (level-1 origin) or huge PTEs (directory).
    /// Each PTE's `HUGE` flag says which release path it needs.
    Node(Arc<LeafNode>),
    /// A lone huge leaf.
    Huge(Pte),
}

/// Where a VPN's covering structure sits after walking the upper levels.
enum Loc {
    /// The path is absent above level 1.
    Missing,
    /// The level-1 intermediate node (slots hold `Leaf`/`Huge`/`None`).
    L1(u32),
    /// A huge directory covers this GiB: `(level-2 node, slot)`.
    Dir(u32, usize),
}

/// A four-level page table mapping [`Vpn`]s to [`Pte`]s.
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    mapped: u64,
    /// Live leaf nodes referenced from this table (shared ones count once;
    /// huge directories count like any other leaf node).
    leaf_count: u64,
    /// Live 2 MiB huge mappings (lone leaves plus directory members).
    huge: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table (root node only).
    pub fn new() -> PageTable {
        PageTable {
            nodes: vec![Node::new()],
            free: Vec::new(),
            root: 0,
            mapped: 0,
            leaf_count: 0,
            huge: 0,
        }
    }

    fn alloc_node(&mut self, cycles: &mut Cycles, cost: &CostModel) -> u32 {
        cycles.charge(cost.pt_node_alloc);
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = Node::new();
            i
        } else {
            self.nodes.push(Node::new());
            (self.nodes.len() - 1) as u32
        }
    }

    /// Walks downward allocating missing intermediates, returning the arena
    /// index of the level-`stop` node covering `vpn` (`stop == 1` for the
    /// ordinary leaf walk, `stop == 2` to attach a huge directory).
    ///
    /// Panics on meeting a huge directory above `stop`: callers must
    /// degroup (or route to the directory) first.
    fn walk_alloc(&mut self, vpn: Vpn, stop: usize, cycles: &mut Cycles, cost: &CostModel) -> u32 {
        let mut node = self.root;
        for level in (stop + 1..PT_LEVELS).rev() {
            let idx = vpn.pt_index(level);
            node = match self.nodes[node as usize].entries[idx] {
                Entry::Table(t) => t,
                Entry::None => {
                    let t = self.alloc_node(cycles, cost);
                    let n = &mut self.nodes[node as usize];
                    n.entries[idx] = Entry::Table(t);
                    n.live += 1;
                    t
                }
                Entry::Leaf(_) => panic!("walk through a huge directory (missed degroup)"),
                Entry::Huge(_) => unreachable!("huge leaf at level {level}"),
            };
        }
        node
    }

    /// Walks the upper levels read-only and reports what covers `vpn`.
    fn locate(&self, vpn: Vpn) -> Loc {
        let mut node = self.root;
        for level in (2..PT_LEVELS).rev() {
            let idx = vpn.pt_index(level);
            match &self.nodes[node as usize].entries[idx] {
                Entry::Table(t) => node = *t,
                Entry::Leaf(_) if level == 2 => return Loc::Dir(node, idx),
                _ => return Loc::Missing,
            }
        }
        Loc::L1(node)
    }

    /// Number of leaf translations currently installed. A huge mapping
    /// counts as the [`HUGE_PAGES`] small pages it covers.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Number of live 2 MiB huge mappings.
    pub fn huge_mapped(&self) -> u64 {
        self.huge
    }

    /// Number of live page-table nodes, including the root and leaf nodes
    /// (a shared leaf node counts in every table referencing it, as it
    /// would occupy a slot in each table's parent node on hardware).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len() + self.leaf_count as usize
    }

    /// Synthesizes the per-page view of a huge block PTE: the frame is
    /// `head + offset` and the `HUGE` flag rides along so callers can tell
    /// the translation came from a block mapping.
    fn synth(huge: Pte, vpn: Vpn) -> Pte {
        Pte {
            pfn: Pfn(huge.pfn.0 + vpn.huge_offset()),
            flags: huge.flags,
        }
    }

    /// Installs a small leaf translation for `vpn`.
    ///
    /// Fails with [`MemError::Overlap`] if a translation is already present
    /// (including coverage by a huge block); callers must unmap first
    /// (matching hardware, where silently replacing a live PTE without a
    /// TLB flush is a bug). Panics if the covering leaf subtree is shared —
    /// callers must privatize first. Mapping a small page into a hole of a
    /// huge directory degroups the directory back to a level-1 table.
    pub fn map(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        if !vpn.is_user() {
            return Err(MemError::BadAddress);
        }
        // Injection point: a real kernel can fail to get a frame for an
        // intermediate node anywhere along the walk. Crossing before any
        // mutation keeps the table untouched on injected failure.
        fpr_faults::cross(FaultSite::PtNodeAlloc).map_err(|_| MemError::OutOfMemory)?;
        if let Loc::Dir(n2, i2) = self.locate(vpn) {
            let Entry::Leaf(arc) = &self.nodes[n2 as usize].entries[i2] else {
                unreachable!("located a directory");
            };
            if arc.ptes[vpn.pt_index(1)].is_some() {
                return Err(MemError::Overlap);
            }
            // Small page into a directory hole: the GiB loses its all-huge
            // shape, so fall back to a level-1 table of lone huge leaves.
            self.degroup(n2, i2, cycles, cost);
        }
        let node = self.walk_alloc(vpn, 1, cycles, cost);
        let idx1 = vpn.pt_index(1);
        let n = &mut self.nodes[node as usize];
        if matches!(n.entries[idx1], Entry::Huge(_)) {
            return Err(MemError::Overlap);
        }
        if matches!(n.entries[idx1], Entry::None) {
            cycles.charge(cost.pt_node_alloc);
            n.entries[idx1] = Entry::Leaf(Arc::new(LeafNode::new()));
            n.live += 1;
            self.leaf_count += 1;
        }
        let Entry::Leaf(arc) = &mut self.nodes[node as usize].entries[idx1] else {
            unreachable!("table at leaf level");
        };
        let idx0 = vpn.pt_index(0);
        if arc.ptes[idx0].is_some() {
            return Err(MemError::Overlap);
        }
        let leaf = Arc::get_mut(arc).expect("map into a shared leaf subtree (missed unshare)");
        leaf.set(idx0, Some(pte));
        self.mapped += 1;
        Ok(())
    }

    /// Installs a 2 MiB huge leaf at block-aligned `vpn`, whose `pfn` heads
    /// a naturally aligned 512-frame run. Fails with [`MemError::Overlap`]
    /// if anything is mapped in the block's level-1 slot. When the target
    /// falls in a hole of an exclusive huge directory the PTE is written
    /// straight into the directory; collapsing is attempted otherwise.
    ///
    /// Charges [`CostModel::huge_map`] — the price of *constructing* a
    /// block mapping (populate path). Fork-time duplication of an
    /// existing block is a single entry write; use [`Self::copy_huge`].
    pub fn map_huge(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        self.install_huge(vpn, pte, cycles, cost, cost.huge_map)
    }

    /// [`Self::map_huge`] priced as a copy of one already-built entry
    /// ([`CostModel::pte_copy`]): the fork paths duplicate a parent's
    /// huge PTE into the child, they do not build a mapping from scratch.
    pub fn copy_huge(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        self.install_huge(vpn, pte, cycles, cost, cost.pte_copy)
    }

    fn install_huge(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        cycles: &mut Cycles,
        cost: &CostModel,
        charge: u64,
    ) -> MemResult<()> {
        if !vpn.is_user() {
            return Err(MemError::BadAddress);
        }
        assert!(vpn.is_huge_aligned(), "map_huge of an unaligned block");
        debug_assert_eq!(pte.pfn.0 % HUGE_PAGES, 0, "huge pfn must head an aligned run");
        let pte = Pte::new(pte.pfn, pte.flags | PteFlags::HUGE);
        fpr_faults::cross(FaultSite::PtNodeAlloc).map_err(|_| MemError::OutOfMemory)?;
        if let Loc::Dir(n2, i2) = self.locate(vpn) {
            let j = vpn.pt_index(1);
            let Entry::Leaf(arc) = &mut self.nodes[n2 as usize].entries[i2] else {
                unreachable!("located a directory");
            };
            if arc.ptes[j].is_some() {
                return Err(MemError::Overlap);
            }
            let dir =
                Arc::get_mut(arc).expect("map_huge into a shared directory (missed unshare)");
            dir.set(j, Some(pte));
            self.mapped += HUGE_PAGES;
            self.huge += 1;
            cycles.charge(charge);
            return Ok(());
        }
        let node = self.walk_alloc(vpn, 1, cycles, cost);
        let idx1 = vpn.pt_index(1);
        let n = &mut self.nodes[node as usize];
        if !matches!(n.entries[idx1], Entry::None) {
            return Err(MemError::Overlap);
        }
        n.entries[idx1] = Entry::Huge(pte);
        n.live += 1;
        self.mapped += HUGE_PAGES;
        self.huge += 1;
        cycles.charge(charge);
        self.try_collapse(vpn, node);
        Ok(())
    }

    /// If the level-1 node covering `vpn` has become all-huge, collapses it
    /// into a huge directory at the parent level-2 slot. Free — it rides
    /// behind the promote/map that filled the last slot, trades one arena
    /// node for one leaf node, and is what lets fork share a whole GiB of
    /// huge mappings with a single pointer copy.
    fn try_collapse(&mut self, vpn: Vpn, l1: u32) {
        {
            let n = &self.nodes[l1 as usize];
            if n.live as usize != PT_ENTRIES
                || !n.entries.iter().all(|e| matches!(e, Entry::Huge(_)))
            {
                return;
            }
        }
        let mut dir = LeafNode::new();
        for (j, e) in self.nodes[l1 as usize].entries.iter().enumerate() {
            let Entry::Huge(p) = e else { unreachable!() };
            dir.set(j, Some(*p));
        }
        // Rewire the parent slot from Table(l1) to the directory.
        let mut node = self.root;
        for level in (3..PT_LEVELS).rev() {
            node = match &self.nodes[node as usize].entries[vpn.pt_index(level)] {
                Entry::Table(t) => *t,
                _ => unreachable!("collapse under a broken path"),
            };
        }
        let i2 = vpn.pt_index(2);
        debug_assert!(matches!(
            self.nodes[node as usize].entries[i2],
            Entry::Table(t) if t == l1
        ));
        self.nodes[node as usize].entries[i2] = Entry::Leaf(Arc::new(dir));
        self.free.push(l1);
        self.leaf_count += 1;
        // `mapped`, `huge` and the parent's live count are unchanged.
    }

    /// Groups every level-1 table whose present entries are all huge (two
    /// or more of them) into a — possibly partial — huge directory, the
    /// form an on-demand fork shares with a single pointer copy. Partial
    /// directories are an ordinary table state (member unmap produces
    /// them too); holes fill via `map_huge` and degroup on a small map.
    /// Free, like [`Self::try_collapse`]: a node swap, not a PTE walk.
    pub(crate) fn group_huge_tables(&mut self) {
        let l2s: Vec<u32> = self.nodes[self.root as usize]
            .entries
            .iter()
            .filter_map(|e| match e {
                Entry::Table(t) => Some(*t),
                _ => None,
            })
            .collect();
        for n2 in l2s {
            for i2 in 0..PT_ENTRIES {
                let Entry::Table(l1) = self.nodes[n2 as usize].entries[i2] else {
                    continue;
                };
                let n = &self.nodes[l1 as usize];
                if n.live < 2
                    || !n
                        .entries
                        .iter()
                        .all(|e| matches!(e, Entry::Huge(_) | Entry::None))
                {
                    continue;
                }
                let mut dir = LeafNode::new();
                for (j, e) in self.nodes[l1 as usize].entries.iter().enumerate() {
                    if let Entry::Huge(p) = e {
                        dir.set(j, Some(*p));
                    }
                }
                self.nodes[n2 as usize].entries[i2] = Entry::Leaf(Arc::new(dir));
                self.free.push(l1);
                self.leaf_count += 1;
            }
        }
    }

    /// Splits an exclusive huge directory at `(n2, i2)` back into a level-1
    /// table of lone huge leaves, returning the new node's arena index.
    /// Charges one node allocation; the huge PTEs themselves survive, so
    /// this is not a demotion and crosses no fault site of its own.
    fn degroup(&mut self, n2: u32, i2: usize, cycles: &mut Cycles, cost: &CostModel) -> u32 {
        let Entry::Leaf(arc) = std::mem::replace(&mut self.nodes[n2 as usize].entries[i2], Entry::None)
        else {
            unreachable!("degroup of a non-directory slot");
        };
        let dir = match Arc::try_unwrap(arc) {
            Ok(node) => node,
            Err(_) => panic!("degrouping a shared huge directory (missed unshare)"),
        };
        let l1 = self.alloc_node(cycles, cost);
        let n = &mut self.nodes[l1 as usize];
        for (j, slot) in dir.ptes.iter().enumerate() {
            if let Some(p) = slot {
                n.entries[j] = Entry::Huge(*p);
                n.live += 1;
            }
        }
        self.nodes[n2 as usize].entries[i2] = Entry::Table(l1);
        self.leaf_count -= 1;
        // The parent's live count is unchanged: Leaf replaced by Table.
        l1
    }

    /// If the 2 MiB block at aligned `base` is structurally promotable —
    /// an exclusive, completely full small-PTE leaf whose frames are
    /// physically contiguous from an aligned head with identical flags —
    /// returns the huge PTE that `PageTable::promote_block` would
    /// install. Frame refcount eligibility is the caller's business; this
    /// checks only what the table can see.
    pub(crate) fn promotable(&self, base: Vpn) -> Option<Pte> {
        debug_assert!(base.is_huge_aligned());
        let Loc::L1(node) = self.locate(base) else {
            return None;
        };
        let Entry::Leaf(arc) = &self.nodes[node as usize].entries[base.pt_index(1)] else {
            return None;
        };
        if Arc::strong_count(arc) > 1 || arc.live() != PT_ENTRIES as u64 {
            return None;
        }
        let first = arc.ptes[0]?;
        if !first.is_present() || first.pfn.0 % HUGE_PAGES != 0 {
            return None;
        }
        for (j, slot) in arc.ptes.iter().enumerate() {
            let p = (*slot)?;
            if !p.is_present() || p.flags != first.flags || p.pfn.0 != first.pfn.0 + j as u64 {
                return None;
            }
        }
        Some(Pte::new(first.pfn, first.flags | PteFlags::HUGE))
    }

    /// Collapses the full small-PTE leaf at aligned `base` into the lone
    /// huge leaf `pte` (as computed by [`PageTable::promotable`]), charging
    /// [`CostModel::pt_promote`]. The caller crosses
    /// [`FaultSite::PtPromote`] and verifies frame eligibility first.
    pub(crate) fn promote_block(
        &mut self,
        base: Vpn,
        pte: Pte,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        debug_assert!(base.is_huge_aligned() && pte.is_huge());
        let Loc::L1(node) = self.locate(base) else {
            return Err(MemError::NotMapped);
        };
        let idx1 = base.pt_index(1);
        match &self.nodes[node as usize].entries[idx1] {
            Entry::Leaf(arc) => {
                debug_assert_eq!(
                    Arc::strong_count(arc),
                    1,
                    "promoting a shared leaf (missed unshare)"
                );
                debug_assert_eq!(arc.live(), PT_ENTRIES as u64);
            }
            _ => return Err(MemError::NotMapped),
        }
        self.nodes[node as usize].entries[idx1] = Entry::Huge(pte);
        self.leaf_count -= 1;
        self.huge += 1;
        // `mapped` is unchanged: 512 small pages became one 512-page block.
        cycles.charge(cost.pt_promote);
        self.try_collapse(base, node);
        Ok(())
    }

    /// Splits the huge block covering `vpn` back into 512 small PTEs
    /// (degrouping its directory first if needed), charging
    /// [`CostModel::pt_demote`]. Crosses [`FaultSite::PtDemote`] before any
    /// mutation, so an injected failure leaves the block huge and the
    /// enclosing operation fails cleanly. Frames and refcounts are
    /// untouched — the small PTEs alias the same run.
    pub(crate) fn demote_block(
        &mut self,
        vpn: Vpn,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        let base = vpn.huge_base();
        fpr_faults::cross(FaultSite::PtDemote).map_err(|_| MemError::OutOfMemory)?;
        let l1 = match self.locate(base) {
            Loc::Dir(n2, i2) => self.degroup(n2, i2, cycles, cost),
            Loc::L1(n) => n,
            Loc::Missing => return Err(MemError::NotMapped),
        };
        let idx1 = base.pt_index(1);
        let Entry::Huge(hpte) = self.nodes[l1 as usize].entries[idx1] else {
            return Err(MemError::NotMapped);
        };
        let mut leaf = LeafNode::new();
        let flags = hpte.flags.minus(PteFlags::HUGE);
        for j in 0..PT_ENTRIES {
            let pfn = Pfn(hpte.pfn.0 + j as u64);
            leaf.set(j, Some(Pte { pfn, flags }));
        }
        self.nodes[l1 as usize].entries[idx1] = Entry::Leaf(Arc::new(leaf));
        self.leaf_count += 1;
        self.huge -= 1;
        cycles.charge(cost.pt_demote);
        Ok(())
    }

    /// Removes the translation for `vpn`, returning the old entry and
    /// tearing down any intermediate nodes that become empty. A huge block
    /// unmaps as a unit at its block base (the whole 512-page translation
    /// comes back as one huge PTE); unmapping an interior page of a huge
    /// block panics — callers must demote first. Panics if the covering
    /// leaf subtree or directory is shared — callers must privatize first.
    pub fn unmap(&mut self, vpn: Vpn) -> MemResult<Pte> {
        // Record the walk so empty ancestors can be reclaimed.
        let mut path = [(0u32, 0usize); PT_LEVELS];
        let mut node = self.root;
        let mut dir = None;
        for level in (2..PT_LEVELS).rev() {
            let idx = vpn.pt_index(level);
            path[level] = (node, idx);
            match &self.nodes[node as usize].entries[idx] {
                Entry::Table(t) => node = *t,
                Entry::Leaf(_) if level == 2 => {
                    dir = Some((node, idx));
                    break;
                }
                _ => return Err(MemError::NotMapped),
            }
        }
        if let Some((n2, i2)) = dir {
            let j = vpn.pt_index(1);
            let Entry::Leaf(arc) = &mut self.nodes[n2 as usize].entries[i2] else {
                unreachable!("located a directory");
            };
            if arc.ptes[j].is_none() {
                return Err(MemError::NotMapped);
            }
            assert!(
                vpn.is_huge_aligned(),
                "unmap inside a huge block (missed demote)"
            );
            let d = Arc::get_mut(arc).expect("unmap inside a shared directory (missed unshare)");
            let pte = d.set(j, None).expect("presence checked above");
            self.mapped -= HUGE_PAGES;
            self.huge -= 1;
            if d.live() == 0 {
                let n = &mut self.nodes[n2 as usize];
                n.entries[i2] = Entry::None;
                n.live -= 1;
                self.leaf_count -= 1;
                self.reclaim_path(&path, n2, 3);
            }
            return Ok(pte);
        }
        let idx1 = vpn.pt_index(1);
        if let Entry::Huge(hpte) = self.nodes[node as usize].entries[idx1] {
            assert!(
                vpn.is_huge_aligned(),
                "unmap inside a huge block (missed demote)"
            );
            let n = &mut self.nodes[node as usize];
            n.entries[idx1] = Entry::None;
            n.live -= 1;
            self.mapped -= HUGE_PAGES;
            self.huge -= 1;
            self.reclaim_path(&path, node, 2);
            return Ok(hpte);
        }
        let idx0 = vpn.pt_index(0);
        let Entry::Leaf(arc) = &mut self.nodes[node as usize].entries[idx1] else {
            return Err(MemError::NotMapped);
        };
        if arc.ptes[idx0].is_none() {
            return Err(MemError::NotMapped);
        }
        let leaf = Arc::get_mut(arc).expect("unmap inside a shared leaf subtree (missed unshare)");
        let pte = leaf.set(idx0, None).expect("presence checked above");
        self.mapped -= 1;
        if leaf.live() != 0 {
            return Ok(pte);
        }
        let n = &mut self.nodes[node as usize];
        n.entries[idx1] = Entry::None;
        n.live -= 1;
        self.leaf_count -= 1;
        self.reclaim_path(&path, node, 2);
        Ok(pte)
    }

    /// Reclaims empty intermediate nodes bottom-up starting from `child`
    /// (never the root), following the parent links recorded in `path`
    /// from level `from` upward.
    fn reclaim_path(&mut self, path: &[(u32, usize); PT_LEVELS], mut child: u32, from: usize) {
        #[allow(clippy::needless_range_loop)]
        for level in from..PT_LEVELS {
            if self.nodes[child as usize].live != 0 {
                break;
            }
            let (parent, idx) = path[level];
            self.free.push(child);
            let pn = &mut self.nodes[parent as usize];
            pn.entries[idx] = Entry::None;
            pn.live -= 1;
            child = parent;
        }
    }

    /// Looks up the translation for `vpn`. Inside a huge block the
    /// returned PTE is the per-page view (frame `head + offset`, `HUGE`
    /// flag set) so callers can both use the translation and recognise the
    /// block mapping behind it.
    pub fn translate(&self, vpn: Vpn) -> Option<Pte> {
        match self.locate(vpn) {
            Loc::Missing => None,
            Loc::Dir(n2, i2) => {
                let Entry::Leaf(arc) = &self.nodes[n2 as usize].entries[i2] else {
                    unreachable!("located a directory");
                };
                arc.ptes[vpn.pt_index(1)].map(|h| Self::synth(h, vpn))
            }
            Loc::L1(node) => match &self.nodes[node as usize].entries[vpn.pt_index(1)] {
                Entry::Leaf(arc) => arc.ptes[vpn.pt_index(0)],
                Entry::Huge(h) => Some(Self::synth(*h, vpn)),
                _ => None,
            },
        }
    }

    /// The covering 2 MiB block PTE (frame = head of the run) if `vpn`
    /// falls inside a huge mapping.
    pub fn huge_block(&self, vpn: Vpn) -> Option<Pte> {
        match self.locate(vpn) {
            Loc::Missing => None,
            Loc::Dir(n2, i2) => {
                let Entry::Leaf(arc) = &self.nodes[n2 as usize].entries[i2] else {
                    unreachable!("located a directory");
                };
                arc.ptes[vpn.pt_index(1)]
            }
            Loc::L1(node) => match &self.nodes[node as usize].entries[vpn.pt_index(1)] {
                Entry::Huge(h) => Some(*h),
                _ => None,
            },
        }
    }

    /// True if the leaf subtree (or huge directory) covering `vpn` exists
    /// and is shared with another page table (on-demand fork has not yet
    /// unshared it). A lone huge leaf is never shared — fork shares its
    /// frames, not the entry.
    pub fn leaf_shared(&self, vpn: Vpn) -> bool {
        match self.locate(vpn) {
            Loc::Missing => false,
            Loc::Dir(n2, i2) => {
                let Entry::Leaf(arc) = &self.nodes[n2 as usize].entries[i2] else {
                    unreachable!("located a directory");
                };
                Arc::strong_count(arc) > 1
            }
            Loc::L1(node) => match &self.nodes[node as usize].entries[vpn.pt_index(1)] {
                Entry::Leaf(arc) => Arc::strong_count(arc) > 1,
                _ => false,
            },
        }
    }

    /// Replaces an existing translation in place (COW break, protection
    /// change). A huge block updates as a unit: the new PTE must be huge
    /// and `vpn` block-aligned, else the caller missed a demote. Fails if
    /// `vpn` is not mapped. Panics if the covering leaf subtree or
    /// directory is shared — callers must privatize first.
    pub fn update(&mut self, vpn: Vpn, pte: Pte) -> MemResult<Pte> {
        match self.locate(vpn) {
            Loc::Missing => Err(MemError::NotMapped),
            Loc::Dir(n2, i2) => {
                let j = vpn.pt_index(1);
                let Entry::Leaf(arc) = &mut self.nodes[n2 as usize].entries[i2] else {
                    unreachable!("located a directory");
                };
                if arc.ptes[j].is_none() {
                    return Err(MemError::NotMapped);
                }
                assert!(
                    vpn.is_huge_aligned() && pte.is_huge(),
                    "partial update of a huge block (missed demote)"
                );
                let d =
                    Arc::get_mut(arc).expect("update inside a shared directory (missed unshare)");
                Ok(d.set(j, Some(pte)).expect("presence checked above"))
            }
            Loc::L1(node) => {
                let idx1 = vpn.pt_index(1);
                match &mut self.nodes[node as usize].entries[idx1] {
                    Entry::Huge(h) => {
                        assert!(
                            vpn.is_huge_aligned() && pte.is_huge(),
                            "partial update of a huge block (missed demote)"
                        );
                        let old = *h;
                        *h = pte;
                        Ok(old)
                    }
                    Entry::Leaf(arc) => {
                        let idx0 = vpn.pt_index(0);
                        if arc.ptes[idx0].is_none() {
                            return Err(MemError::NotMapped);
                        }
                        let leaf = Arc::get_mut(arc)
                            .expect("update inside a shared leaf subtree (missed unshare)");
                        Ok(leaf.set(idx0, Some(pte)).expect("presence checked above"))
                    }
                    _ => Err(MemError::NotMapped),
                }
            }
        }
    }

    /// Coordinates of every leaf-bearing slot whose span intersects the VPN
    /// range `[lo, hi)`: `(base VPN, arena node, slot index, kind)`,
    /// ascending by base — an in-order descent that enters only subtrees
    /// the range touches. Every leaf enumeration below is built on this
    /// one walk. Coordinates (not `Arc` clones) so that enumerating does
    /// not perturb `Arc::strong_count` — the on-demand fork walk relies on
    /// the count to detect exclusivity. Coordinates are invalidated by any
    /// map/unmap/attach/detach.
    pub(crate) fn leaf_slots_in(&self, lo: u64, hi: u64) -> Vec<Slot> {
        let mut out = Vec::new();
        self.collect_slots(self.root, PT_LEVELS - 1, 0, lo, hi, &mut out);
        out
    }

    fn collect_slots(
        &self,
        node: u32,
        level: usize,
        base: u64,
        lo: u64,
        hi: u64,
        out: &mut Vec<Slot>,
    ) {
        let shift = 9 * level;
        // Entries `first..last` are the ones whose span meets `[lo, hi)`.
        let first = (lo.saturating_sub(base) >> shift).min(PT_ENTRIES as u64) as usize;
        let last = ((hi - base).saturating_add((1 << shift) - 1) >> shift)
            .clamp(first as u64, PT_ENTRIES as u64) as usize;
        for (i, e) in self.nodes[node as usize].entries[first..last].iter().enumerate() {
            let i = first + i;
            let slot_base = base | ((i as u64) << shift);
            match e {
                Entry::None => {}
                Entry::Table(t) => self.collect_slots(*t, level - 1, slot_base, lo, hi, out),
                Entry::Leaf(_) if level == 2 => out.push((slot_base, node, i, SlotKind::Dir)),
                Entry::Leaf(_) => out.push((slot_base, node, i, SlotKind::Small)),
                Entry::Huge(_) => out.push((slot_base, node, i, SlotKind::Huge)),
            }
        }
    }

    /// [`Self::leaf_slots_in`] over the whole table.
    pub(crate) fn leaf_slot_coords(&self) -> Vec<Slot> {
        self.leaf_slots_in(0, u64::MAX)
    }

    /// Present entries of the slot at coordinates from
    /// [`Self::leaf_slots_in`], ascending: `(in-node index, VPN, PTE)`. A
    /// huge block — lone, or a directory member — appears once at its
    /// block base with the `HUGE` flag set.
    pub(crate) fn slot_entries(
        &self,
        (base, node, idx, kind): Slot,
    ) -> impl Iterator<Item = (usize, Vpn, Pte)> + '_ {
        let (lone, ptes): (Option<Pte>, &[Option<Pte>]) =
            match &self.nodes[node as usize].entries[idx] {
                Entry::Leaf(arc) => (None, &arc.ptes[..]),
                Entry::Huge(p) => (Some(*p), &[]),
                _ => panic!("slot_entries: stale coordinates"),
            };
        let members = ptes
            .iter()
            .enumerate()
            .filter_map(move |(j, p)| p.map(|p| (j, Vpn(base + j as u64 * kind.stride()), p)));
        lone.into_iter().map(move |p| (0, Vpn(base), p)).chain(members)
    }

    /// Visits every leaf translation in ascending VPN order. Huge blocks
    /// are yielded once at their block base with the `HUGE` flag set.
    pub fn for_each_leaf(&self, mut f: impl FnMut(Vpn, Pte)) {
        self.for_each_leaf_keyed(|_, vpn, pte| f(vpn, pte));
    }

    /// Visits every leaf translation along with the identity of the leaf
    /// node holding it (stable address of the shared node), so callers can
    /// recognise when two tables reference the *same* physical subtree.
    /// Lone huge leaves use the address of their arena slot — a distinct
    /// allocation from every `Arc`, so identities never collide.
    pub fn for_each_leaf_keyed(&self, mut f: impl FnMut(usize, Vpn, Pte)) {
        for slot in self.leaf_slot_coords() {
            let id = match &self.nodes[slot.1 as usize].entries[slot.2] {
                Entry::Leaf(arc) => Arc::as_ptr(arc) as usize,
                lone => lone as *const Entry as usize,
            };
            self.slot_entries(slot).for_each(|(_, vpn, pte)| f(id, vpn, pte));
        }
    }

    /// Mutably visits every leaf translation; the closure may rewrite the
    /// entry (but not remove it). Huge blocks are visited once at their
    /// block base. Panics if any leaf subtree is shared.
    pub fn for_each_leaf_mut(&mut self, mut f: impl FnMut(Vpn, &mut Pte)) {
        for (base, node, idx, kind) in self.leaf_slot_coords() {
            match &mut self.nodes[node as usize].entries[idx] {
                Entry::Leaf(arc) => {
                    let leaf =
                        Arc::get_mut(arc).expect("mutating a shared leaf subtree (missed unshare)");
                    for j in 0..PT_ENTRIES {
                        if let Some(mut p) = leaf.ptes[j] {
                            f(Vpn(base + j as u64 * kind.stride()), &mut p);
                            leaf.set(j, Some(p));
                        }
                    }
                }
                Entry::Huge(p) => f(Vpn(base), p),
                _ => unreachable!("coordinates name leaf-bearing slots"),
            }
        }
    }

    /// Collects all leaves in a range `[start, start + pages)`. Huge
    /// blocks appear once at their block base; a block partially
    /// overlapping the range boundary must be demoted by the caller before
    /// this filter is meaningful.
    pub fn leaves_in_range(&self, start: Vpn, pages: u64) -> Vec<(Vpn, Pte)> {
        let range = start.0..start.0 + pages;
        self.leaf_slots_in(range.start, range.end)
            .into_iter()
            .flat_map(|slot| self.slot_entries(slot))
            .filter(|(_, vpn, _)| range.contains(&vpn.0))
            .map(|(_, vpn, pte)| (vpn, pte))
            .collect()
    }

    /// The leaf node at arena coordinates from [`Self::leaf_slot_coords`]
    /// (small leaves and huge directories both).
    pub(crate) fn leaf_at(&self, node: u32, idx: usize) -> &Arc<LeafNode> {
        match &self.nodes[node as usize].entries[idx] {
            Entry::Leaf(arc) => arc,
            _ => panic!("leaf_at: stale coordinates"),
        }
    }

    /// Mutable access to the leaf node at arena coordinates. The returned
    /// `Arc` can be inspected/marked via `Arc::get_mut` when exclusive.
    pub(crate) fn leaf_at_mut(&mut self, node: u32, idx: usize) -> &mut Arc<LeafNode> {
        match &mut self.nodes[node as usize].entries[idx] {
            Entry::Leaf(arc) => arc,
            _ => panic!("leaf_at_mut: stale coordinates"),
        }
    }

    /// Wires the small-PTE node `leaf`, built entry by entry with
    /// [`LeafNode::map`], into the empty level-1 slot at `base`: the one
    /// descent, and the node charges, that mapping its first entry through
    /// [`Self::map`] would have made. Infallible — every entry crossed its
    /// fault site when it was written.
    pub(crate) fn install_leaf(
        &mut self,
        base: u64,
        leaf: LeafNode,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) {
        let vpn = Vpn(base);
        let node = self.walk_alloc(vpn, 1, cycles, cost);
        let idx1 = vpn.pt_index(1);
        let empty = matches!(self.nodes[node as usize].entries[idx1], Entry::None);
        assert!(empty, "install_leaf over a live slot");
        cycles.charge(cost.pt_node_alloc);
        self.wire_leaf(node, idx1, Arc::new(leaf), false);
    }

    /// Puts `arc` into the empty slot `idx` of arena node `node` and counts
    /// what it maps: small pages, or 2 MiB blocks for a directory.
    fn wire_leaf(&mut self, node: u32, idx: usize, arc: Arc<LeafNode>, dir: bool) {
        let live = arc.live();
        if dir {
            self.mapped += live * HUGE_PAGES;
            self.huge += live;
        } else {
            self.mapped += live;
        }
        let n = &mut self.nodes[node as usize];
        n.entries[idx] = Entry::Leaf(arc);
        n.live += 1;
        self.leaf_count += 1;
    }

    /// Wires an existing (typically shared) leaf node into this table at
    /// `base` (the VPN of its first slot), allocating intermediates as
    /// needed. This is the on-demand fork fast path: one pointer copy and
    /// a refcount bump instead of up to 512 PTE copies. With `dir` the
    /// node is a huge directory and attaches one level up, sharing up to a
    /// GiB of huge mappings in the same single pointer copy.
    pub(crate) fn attach_leaf(
        &mut self,
        base: u64,
        arc: Arc<LeafNode>,
        dir: bool,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        let vpn = Vpn(base);
        if !vpn.is_user() {
            return Err(MemError::BadAddress);
        }
        fpr_faults::cross(FaultSite::PtNodeAlloc).map_err(|_| MemError::OutOfMemory)?;
        let stop = if dir { 2 } else { 1 };
        let node = self.walk_alloc(vpn, stop, cycles, cost);
        let idx = vpn.pt_index(stop);
        let n = &mut self.nodes[node as usize];
        if !matches!(n.entries[idx], Entry::None) {
            return Err(MemError::Overlap);
        }
        cycles.charge(cost.pt_subtree_share);
        self.wire_leaf(node, idx, arc, dir);
        Ok(())
    }

    /// Replaces the (shared) leaf node or huge directory covering `vpn`
    /// with a private deep copy — the deferred per-subtree copy of an
    /// on-demand fork. Charges one node allocation plus one PTE copy per
    /// present entry, and returns the present PTEs so the caller can
    /// adjust frame refcounts (huge PTEs, flagged `HUGE`, stand for whole
    /// runs). Crosses [`FaultSite::PtUnshare`] before mutating anything.
    pub(crate) fn privatize_leaf(
        &mut self,
        vpn: Vpn,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<Vec<Pte>> {
        fpr_faults::cross(FaultSite::PtUnshare).map_err(|_| MemError::OutOfMemory)?;
        let (node, idx) = match self.locate(vpn) {
            Loc::Missing => return Err(MemError::NotMapped),
            Loc::Dir(n2, i2) => (n2, i2),
            Loc::L1(n1) => (n1, vpn.pt_index(1)),
        };
        let Entry::Leaf(arc) = &mut self.nodes[node as usize].entries[idx] else {
            return Err(MemError::NotMapped);
        };
        cycles.charge(cost.pt_node_alloc + arc.live() * cost.pte_copy);
        let present = arc.present();
        *arc = Arc::new(LeafNode::clone(arc));
        Ok(present)
    }

    /// Unwires the leaf node (or huge directory) at `base` from this table
    /// without touching its contents, tearing down intermediates that
    /// become empty. The caller decides what to do with the returned `Arc`
    /// (drop it cheaply if still shared, release its frames if this was
    /// the last owner). Lone huge leaves are not `Arc`s — unmap those.
    pub(crate) fn detach_leaf(&mut self, base: u64) -> MemResult<Arc<LeafNode>> {
        let vpn = Vpn(base);
        let mut path = [(0u32, 0usize); PT_LEVELS];
        let mut node = self.root;
        let mut dir = None;
        for level in (2..PT_LEVELS).rev() {
            let idx = vpn.pt_index(level);
            path[level] = (node, idx);
            match &self.nodes[node as usize].entries[idx] {
                Entry::Table(t) => node = *t,
                Entry::Leaf(_) if level == 2 => {
                    dir = Some((node, idx));
                    break;
                }
                _ => return Err(MemError::NotMapped),
            }
        }
        if let Some((n2, i2)) = dir {
            debug_assert!(
                vpn.pt_index(1) == 0 && vpn.pt_index(0) == 0,
                "detach of a directory must use its own base"
            );
            let n = &mut self.nodes[n2 as usize];
            let Entry::Leaf(arc) = std::mem::replace(&mut n.entries[i2], Entry::None) else {
                unreachable!("located a directory");
            };
            n.live -= 1;
            self.leaf_count -= 1;
            self.mapped -= arc.live() * HUGE_PAGES;
            self.huge -= arc.live();
            self.reclaim_path(&path, n2, 3);
            return Ok(arc);
        }
        let idx1 = vpn.pt_index(1);
        let n = &mut self.nodes[node as usize];
        if !matches!(n.entries[idx1], Entry::Leaf(_)) {
            return Err(MemError::NotMapped);
        }
        let Entry::Leaf(arc) = std::mem::replace(&mut n.entries[idx1], Entry::None) else {
            unreachable!("matched above");
        };
        n.live -= 1;
        self.leaf_count -= 1;
        self.mapped -= arc.live();
        self.reclaim_path(&path, node, 2);
        Ok(arc)
    }

    /// Drains every leaf and resets the table to empty — O(nodes)
    /// address-space destruction. Returns `(base VPN, leaf)` pairs
    /// ascending by base; huge directories come back as nodes of huge
    /// PTEs and lone huge leaves as bare PTEs.
    pub(crate) fn take_leaves(&mut self) -> Vec<(u64, TakenLeaf)> {
        let slots = self.leaf_slot_coords();
        let take = |(base, node, idx, _): Slot| {
            let e = std::mem::replace(&mut self.nodes[node as usize].entries[idx], Entry::None);
            match e {
                Entry::Leaf(arc) => (base, TakenLeaf::Node(arc)),
                Entry::Huge(p) => (base, TakenLeaf::Huge(p)),
                _ => unreachable!("coordinates name leaf-bearing slots"),
            }
        };
        let out = slots.into_iter().map(take).collect();
        *self = PageTable::new();
        out
    }

    /// Recounts every summary the table keeps beside its entries — each
    /// leaf node's entry, private-writable and swap counts, and the table's
    /// mapped pages, huge mappings and leaf nodes — from the PTEs of every
    /// leaf, exclusively owned or shared, and reports the first that
    /// disagrees. Fork and teardown trust these counts instead of reading
    /// the entries.
    pub(crate) fn check_summaries(&self) -> Result<(), String> {
        let (mut mapped, mut huge, mut leaf_count) = (0, 0, 0);
        for slot in self.leaf_slot_coords() {
            let (base, node, idx, kind) = slot;
            let entries = self.slot_entries(slot).count() as u64;
            match kind {
                SlotKind::Small => mapped += entries,
                SlotKind::Dir | SlotKind::Huge => {
                    mapped += entries * HUGE_PAGES;
                    huge += entries;
                }
            }
            if kind == SlotKind::Huge {
                continue;
            }
            leaf_count += 1;
            let leaf = self.leaf_at(node, idx);
            let mut held = LeafCounts::default();
            leaf.ptes.iter().for_each(|pte| held.add(*pte, 1));
            if leaf.counts != held {
                return Err(format!("leaf at {base:#x} keeps {:?}, holds {held:?}", leaf.counts));
            }
            if Arc::strong_count(leaf) > 1 && held.private_writable != 0 {
                return Err(format!("leaf at {base:#x} is shared with writable private entries"));
            }
        }
        let (kept, held) = ((self.mapped, self.huge, self.leaf_count), (mapped, huge, leaf_count));
        if kept != held {
            return Err(format!("table keeps (mapped, huge, leaves) = {kept:?}, holds {held:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;
    use crate::pte::PteFlags;

    fn fixture() -> (PageTable, Cycles, CostModel) {
        (PageTable::new(), Cycles::new(), CostModel::default())
    }

    fn huge(pfn: u64) -> Pte {
        Pte::new(Pfn(pfn), PteFlags::WRITABLE | PteFlags::HUGE)
    }

    #[test]
    fn group_huge_tables_forms_partial_directories() {
        let (mut pt, mut cy, cost) = fixture();
        // Three loose blocks in one GiB region, one lone block far away.
        for b in 0..3u64 {
            pt.map_huge(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        let far = Vpn(512 * 512 * 3);
        pt.map_huge(far, huge(1 << 30), &mut cy, &cost).unwrap();
        let before = pt.node_count();
        pt.group_huge_tables();
        // The all-huge table traded its arena node for a leaf node.
        assert_eq!(pt.node_count(), before);
        assert_eq!(pt.huge_mapped(), 4);
        // Members still translate through the partial directory, holes
        // stay holes, the lone far block stays inline.
        assert_eq!(pt.translate(Vpn(512 + 7)).unwrap().pfn, Pfn(512 + 7));
        assert_eq!(pt.translate(Vpn(3 * 512)), None);
        let coords = pt.leaf_slot_coords();
        assert_eq!(
            coords
                .iter()
                .filter(|(_, _, _, k)| *k == SlotKind::Dir)
                .count(),
            1,
            "grouped into one partial directory"
        );
        assert_eq!(
            coords
                .iter()
                .filter(|(_, _, _, k)| *k == SlotKind::Huge)
                .count(),
            1,
            "single far block stays a lone leaf"
        );
        // A small map into a hole of the grouped GiB degroups it again.
        pt.map(
            Vpn(3 * 512 + 1),
            Pte::new(Pfn(9), PteFlags::WRITABLE),
            &mut cy,
            &cost,
        )
        .unwrap();
        assert_eq!(pt.translate(Vpn(512 + 7)).unwrap().pfn, Pfn(512 + 7));
        assert_eq!(pt.translate(Vpn(3 * 512 + 1)).unwrap().pfn, Pfn(9));
    }

    #[test]
    fn map_translate_unmap() {
        let (mut pt, mut cy, cost) = fixture();
        let vpn = Vpn(0x12345);
        pt.map(vpn, Pte::new(Pfn(7), PteFlags::WRITABLE), &mut cy, &cost)
            .unwrap();
        let got = pt.translate(vpn).unwrap();
        assert_eq!(got.pfn, Pfn(7));
        assert!(got.is_writable());
        assert_eq!(pt.mapped_pages(), 1);
        let old = pt.unmap(vpn).unwrap();
        assert_eq!(old.pfn, Pfn(7));
        assert_eq!(pt.translate(vpn), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn double_map_is_overlap() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map(Vpn(1), Pte::new(Pfn(1), PteFlags::empty()), &mut cy, &cost)
            .unwrap();
        assert_eq!(
            pt.map(Vpn(1), Pte::new(Pfn(2), PteFlags::empty()), &mut cy, &cost),
            Err(MemError::Overlap)
        );
    }

    #[test]
    fn unmap_missing_is_not_mapped() {
        let (mut pt, _, _) = fixture();
        assert_eq!(pt.unmap(Vpn(99)), Err(MemError::NotMapped));
    }

    #[test]
    fn kernel_half_rejected() {
        let (mut pt, mut cy, cost) = fixture();
        let kvpn = Vpn(1 << 36); // above the 47-bit user split (VPN space)
        assert_eq!(
            pt.map(kvpn, Pte::new(Pfn(0), PteFlags::empty()), &mut cy, &cost),
            Err(MemError::BadAddress)
        );
    }

    #[test]
    fn intermediate_nodes_reclaimed() {
        let (mut pt, mut cy, cost) = fixture();
        assert_eq!(pt.node_count(), 1);
        pt.map(
            Vpn(0x40000),
            Pte::new(Pfn(1), PteFlags::empty()),
            &mut cy,
            &cost,
        )
        .unwrap();
        assert_eq!(pt.node_count(), 4, "three intermediates + root");
        pt.unmap(Vpn(0x40000)).unwrap();
        assert_eq!(pt.node_count(), 1, "empty intermediates torn down");
        // Arena slots are recycled on the next map.
        pt.map(
            Vpn(0x80000),
            Pte::new(Pfn(2), PteFlags::empty()),
            &mut cy,
            &cost,
        )
        .unwrap();
        assert_eq!(pt.node_count(), 4);
    }

    #[test]
    fn siblings_share_intermediates() {
        let (mut pt, mut cy, cost) = fixture();
        for i in 0..512u64 {
            pt.map(Vpn(i), Pte::new(Pfn(i), PteFlags::empty()), &mut cy, &cost)
                .unwrap();
        }
        // 512 leaves fit in one leaf node: root + 2 intermediates + 1 leaf node.
        assert_eq!(pt.node_count(), 4);
        assert_eq!(pt.mapped_pages(), 512);
        pt.map(
            Vpn(512),
            Pte::new(Pfn(600), PteFlags::empty()),
            &mut cy,
            &cost,
        )
        .unwrap();
        assert_eq!(pt.node_count(), 5, "next leaf node allocated");
    }

    #[test]
    fn update_rewrites_in_place() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map(Vpn(3), Pte::new(Pfn(1), PteFlags::WRITABLE), &mut cy, &cost)
            .unwrap();
        let old = pt
            .update(Vpn(3), Pte::new(Pfn(2), PteFlags::empty()))
            .unwrap();
        assert_eq!(old.pfn, Pfn(1));
        assert_eq!(pt.translate(Vpn(3)).unwrap().pfn, Pfn(2));
        assert_eq!(
            pt.update(Vpn(4), Pte::new(Pfn(9), PteFlags::empty())),
            Err(MemError::NotMapped)
        );
    }

    #[test]
    fn for_each_leaf_visits_in_order() {
        let (mut pt, mut cy, cost) = fixture();
        let vpns = [Vpn(5), Vpn(0x200), Vpn(0x7f_ffff), Vpn(1)];
        for (i, v) in vpns.iter().enumerate() {
            pt.map(
                *v,
                Pte::new(Pfn(i as u64), PteFlags::empty()),
                &mut cy,
                &cost,
            )
            .unwrap();
        }
        let mut seen = Vec::new();
        pt.for_each_leaf(|v, _| seen.push(v.0));
        let mut expect: Vec<u64> = vpns.iter().map(|v| v.0).collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn for_each_leaf_mut_rewrites_flags() {
        let (mut pt, mut cy, cost) = fixture();
        for i in 0..100u64 {
            pt.map(Vpn(i), Pte::new(Pfn(i), PteFlags::WRITABLE), &mut cy, &cost)
                .unwrap();
        }
        pt.for_each_leaf_mut(|_, pte| {
            pte.flags = pte.flags.minus(PteFlags::WRITABLE).union(PteFlags::COW);
        });
        let mut cows = 0;
        pt.for_each_leaf(|_, pte| {
            assert!(!pte.is_writable());
            assert!(pte.is_cow());
            cows += 1;
        });
        assert_eq!(cows, 100);
    }

    #[test]
    fn leaves_in_range_filters() {
        let (mut pt, mut cy, cost) = fixture();
        for i in 0..20u64 {
            pt.map(
                Vpn(i * 10),
                Pte::new(Pfn(i), PteFlags::empty()),
                &mut cy,
                &cost,
            )
            .unwrap();
        }
        let r = pt.leaves_in_range(Vpn(50), 51); // VPNs 50..101
        let vpns: Vec<u64> = r.iter().map(|(v, _)| v.0).collect();
        assert_eq!(vpns, vec![50, 60, 70, 80, 90, 100]);
    }

    #[test]
    fn node_alloc_charges_cycles() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map(Vpn(0), Pte::new(Pfn(0), PteFlags::empty()), &mut cy, &cost)
            .unwrap();
        assert_eq!(
            cy.total(),
            3 * cost.pt_node_alloc,
            "three intermediate nodes"
        );
    }

    #[test]
    fn attach_shares_subtree_and_charges_pointer_copy() {
        let (mut parent, mut cy, cost) = fixture();
        for i in 0..512u64 {
            parent
                .map(Vpn(i), Pte::new(Pfn(i), PteFlags::empty()), &mut cy, &cost)
                .unwrap();
        }
        let coords = parent.leaf_slot_coords();
        assert_eq!(coords.len(), 1);
        let (base, l1, idx, kind) = coords[0];
        assert_eq!(base, 0);
        assert_eq!(kind, SlotKind::Small);
        let arc = Arc::clone(parent.leaf_at(l1, idx));

        let mut child = PageTable::new();
        let mut ccy = Cycles::new();
        child.attach_leaf(base, arc, false, &mut ccy, &cost).unwrap();
        assert_eq!(
            ccy.total(),
            2 * cost.pt_node_alloc + cost.pt_subtree_share,
            "two intermediates plus one subtree pointer copy"
        );
        assert_eq!(child.mapped_pages(), 512);
        assert_eq!(child.node_count(), 4);
        assert!(parent.leaf_shared(Vpn(5)));
        assert!(child.leaf_shared(Vpn(5)));
        assert_eq!(child.translate(Vpn(7)).unwrap().pfn, Pfn(7));
    }

    #[test]
    fn privatize_makes_both_sides_exclusive_and_charges_deferred_copy() {
        let (mut parent, mut cy, cost) = fixture();
        for i in 0..8u64 {
            parent
                .map(Vpn(i), Pte::new(Pfn(i), PteFlags::empty()), &mut cy, &cost)
                .unwrap();
        }
        let (base, l1, idx, _) = parent.leaf_slot_coords()[0];
        let arc = Arc::clone(parent.leaf_at(l1, idx));
        let mut child = PageTable::new();
        child.attach_leaf(base, arc, false, &mut cy, &cost).unwrap();

        let mut ucy = Cycles::new();
        let present = child.privatize_leaf(Vpn(3), &mut ucy, &cost).unwrap();
        assert_eq!(present.len(), 8);
        assert_eq!(ucy.total(), cost.pt_node_alloc + 8 * cost.pte_copy);
        assert!(!child.leaf_shared(Vpn(3)), "child now private");
        assert!(!parent.leaf_shared(Vpn(3)), "parent exclusive again");
        // Mutating the private copy no longer affects the other side.
        child.update(Vpn(3), Pte::new(Pfn(99), PteFlags::empty())).unwrap();
        assert_eq!(parent.translate(Vpn(3)).unwrap().pfn, Pfn(3));
        assert_eq!(child.translate(Vpn(3)).unwrap().pfn, Pfn(99));
    }

    #[test]
    fn detach_tears_down_empty_intermediates() {
        let (mut pt, mut cy, cost) = fixture();
        for i in 0..4u64 {
            pt.map(Vpn(i), Pte::new(Pfn(i), PteFlags::empty()), &mut cy, &cost)
                .unwrap();
        }
        assert_eq!(pt.node_count(), 4);
        let arc = pt.detach_leaf(0).unwrap();
        assert_eq!(arc.live(), 4);
        assert_eq!(pt.node_count(), 1, "intermediates reclaimed");
        assert_eq!(pt.mapped_pages(), 0);
        assert!(matches!(pt.detach_leaf(0), Err(MemError::NotMapped)));
    }

    #[test]
    fn take_leaves_drains_everything() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map(Vpn(1), Pte::new(Pfn(1), PteFlags::empty()), &mut cy, &cost)
            .unwrap();
        pt.map(
            Vpn(0x40000),
            Pte::new(Pfn(2), PteFlags::empty()),
            &mut cy,
            &cost,
        )
        .unwrap();
        let leaves = pt.take_leaves();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].0, 0);
        assert_eq!(leaves[1].0, 0x40000);
        assert_eq!(pt.node_count(), 1);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "missed unshare")]
    fn mutating_shared_subtree_panics() {
        let (mut parent, mut cy, cost) = fixture();
        parent
            .map(Vpn(0), Pte::new(Pfn(0), PteFlags::empty()), &mut cy, &cost)
            .unwrap();
        let (base, l1, idx, _) = parent.leaf_slot_coords()[0];
        let arc = Arc::clone(parent.leaf_at(l1, idx));
        let mut child = PageTable::new();
        child.attach_leaf(base, arc, false, &mut cy, &cost).unwrap();
        let _ = parent.map(Vpn(1), Pte::new(Pfn(1), PteFlags::empty()), &mut cy, &cost);
    }

    // ---- huge leaves -----------------------------------------------------

    #[test]
    fn map_huge_translates_every_interior_page() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge(Vpn(512), huge(1024), &mut cy, &cost).unwrap();
        assert_eq!(pt.mapped_pages(), 512);
        assert_eq!(pt.huge_mapped(), 1);
        // Block base and interior pages all translate, offset into the run.
        for off in [0u64, 1, 7, 511] {
            let p = pt.translate(Vpn(512 + off)).unwrap();
            assert_eq!(p.pfn, Pfn(1024 + off));
            assert!(p.is_huge());
            assert!(p.is_writable());
        }
        assert_eq!(pt.translate(Vpn(511)), None);
        assert_eq!(pt.translate(Vpn(1024)), None);
        assert_eq!(pt.huge_block(Vpn(700)).unwrap().pfn, Pfn(1024));
        // The whole block unmaps as one entry.
        let old = pt.unmap(Vpn(512)).unwrap();
        assert_eq!(old.pfn, Pfn(1024));
        assert!(old.is_huge());
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.huge_mapped(), 0);
        assert_eq!(pt.node_count(), 1, "intermediates reclaimed");
    }

    #[test]
    fn huge_and_small_overlap_is_rejected_both_ways() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge(Vpn(0), huge(0), &mut cy, &cost).unwrap();
        assert_eq!(
            pt.map(Vpn(5), Pte::new(Pfn(9), PteFlags::empty()), &mut cy, &cost),
            Err(MemError::Overlap),
            "small page under a huge block"
        );
        assert_eq!(
            pt.map_huge(Vpn(0), huge(512), &mut cy, &cost),
            Err(MemError::Overlap)
        );
        pt.map(Vpn(512), Pte::new(Pfn(3), PteFlags::empty()), &mut cy, &cost)
            .unwrap();
        assert_eq!(
            pt.map_huge(Vpn(512), huge(1024), &mut cy, &cost),
            Err(MemError::Overlap),
            "huge block over an existing small page"
        );
    }

    #[test]
    #[should_panic(expected = "missed demote")]
    fn unmapping_interior_of_huge_block_panics() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge(Vpn(0), huge(0), &mut cy, &cost).unwrap();
        let _ = pt.unmap(Vpn(3));
    }

    #[test]
    fn promote_collapses_a_full_contiguous_leaf() {
        let (mut pt, mut cy, cost) = fixture();
        let flags = PteFlags::WRITABLE | PteFlags::USER;
        for i in 0..512u64 {
            pt.map(Vpn(i), Pte::new(Pfn(1024 + i), flags), &mut cy, &cost)
                .unwrap();
        }
        let hp = pt.promotable(Vpn(0)).expect("block is promotable");
        assert_eq!(hp.pfn, Pfn(1024));
        assert!(hp.is_huge());
        let mut pcy = Cycles::new();
        pt.promote_block(Vpn(0), hp, &mut pcy, &cost).unwrap();
        assert_eq!(pcy.total(), cost.pt_promote);
        assert_eq!(pt.mapped_pages(), 512, "coverage unchanged");
        assert_eq!(pt.huge_mapped(), 1);
        let p = pt.translate(Vpn(17)).unwrap();
        assert_eq!(p.pfn, Pfn(1024 + 17));
        assert!(p.is_huge());
        assert_eq!(pt.node_count(), 3, "leaf node replaced by one inline entry");
    }

    #[test]
    fn promotable_rejects_gaps_mismatched_flags_and_unaligned_heads() {
        let (mut pt, mut cy, cost) = fixture();
        let flags = PteFlags::WRITABLE;
        // Head not 512-aligned.
        for i in 0..512u64 {
            pt.map(Vpn(i), Pte::new(Pfn(1 + i), flags), &mut cy, &cost)
                .unwrap();
        }
        assert!(pt.promotable(Vpn(0)).is_none(), "unaligned head");
        // Aligned but with a gap.
        for i in 0..511u64 {
            pt.map(Vpn(512 + i), Pte::new(Pfn(1024 + i), flags), &mut cy, &cost)
                .unwrap();
        }
        assert!(pt.promotable(Vpn(512)).is_none(), "hole in the block");
        pt.map(Vpn(1023), Pte::new(Pfn(1535), PteFlags::empty()), &mut cy, &cost)
            .unwrap();
        assert!(pt.promotable(Vpn(512)).is_none(), "mismatched flags");
        pt.unmap(Vpn(1023)).unwrap();
        pt.map(Vpn(1023), Pte::new(Pfn(1535), flags), &mut cy, &cost)
            .unwrap();
        assert!(pt.promotable(Vpn(512)).is_some(), "fixed block promotes");
        // Discontiguous frame kills it.
        pt.unmap(Vpn(515)).unwrap();
        pt.map(Vpn(515), Pte::new(Pfn(9000), flags), &mut cy, &cost)
            .unwrap();
        assert!(pt.promotable(Vpn(512)).is_none(), "discontiguous frames");
    }

    #[test]
    fn demote_restores_per_page_ptes_aliasing_the_run() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge(Vpn(0), huge(2048), &mut cy, &cost).unwrap();
        let mut dcy = Cycles::new();
        pt.demote_block(Vpn(7), &mut dcy, &cost).unwrap();
        assert_eq!(dcy.total(), cost.pt_demote);
        assert_eq!(pt.huge_mapped(), 0);
        assert_eq!(pt.mapped_pages(), 512);
        for off in [0u64, 7, 511] {
            let p = pt.translate(Vpn(off)).unwrap();
            assert_eq!(p.pfn, Pfn(2048 + off));
            assert!(!p.is_huge(), "split back to small PTEs");
            assert!(p.is_writable());
        }
        // Pages are now individually unmappable.
        pt.unmap(Vpn(3)).unwrap();
        assert_eq!(pt.mapped_pages(), 511);
    }

    #[test]
    fn full_l1_of_huge_blocks_collapses_into_directory() {
        let (mut pt, mut cy, cost) = fixture();
        // 512 huge blocks = 1 GiB: fills the level-1 node completely.
        for b in 0..512u64 {
            pt.map_huge(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        assert_eq!(pt.huge_mapped(), 512);
        assert_eq!(pt.mapped_pages(), 512 * 512);
        // Collapsed: root + L3 node + directory leaf = 3 "nodes"; the L1
        // table was freed.
        assert_eq!(pt.node_count(), 3, "level-1 table collapsed away");
        let coords = pt.leaf_slot_coords();
        assert_eq!(coords.len(), 1);
        assert_eq!(coords[0].3, SlotKind::Dir);
        // Directory members still translate per page.
        let p = pt.translate(Vpn(512 * 300 + 44)).unwrap();
        assert_eq!(p.pfn, Pfn(512 * 300 + 44));
        assert!(p.is_huge());
    }

    #[test]
    fn directory_attach_shares_a_gigabyte_in_one_pointer_copy() {
        let (mut parent, mut cy, cost) = fixture();
        for b in 0..512u64 {
            parent
                .map_huge(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        let (base, n2, idx, kind) = parent.leaf_slot_coords()[0];
        assert_eq!(kind, SlotKind::Dir);
        let arc = Arc::clone(parent.leaf_at(n2, idx));
        let mut child = PageTable::new();
        let mut ccy = Cycles::new();
        child.attach_leaf(base, arc, true, &mut ccy, &cost).unwrap();
        assert_eq!(
            ccy.total(),
            cost.pt_node_alloc + cost.pt_subtree_share,
            "one intermediate plus one pointer copy for a whole GiB"
        );
        assert_eq!(child.mapped_pages(), 512 * 512);
        assert_eq!(child.huge_mapped(), 512);
        assert!(parent.leaf_shared(Vpn(1000)));
        assert!(child.leaf_shared(Vpn(1000)));
        assert_eq!(child.translate(Vpn(777)).unwrap().pfn, Pfn(777));
        // Privatizing gives the child its own directory.
        let present = child.privatize_leaf(Vpn(0), &mut ccy, &cost).unwrap();
        assert_eq!(present.len(), 512);
        assert!(present.iter().all(|p| p.is_huge()));
        assert!(!child.leaf_shared(Vpn(0)));
        assert!(!parent.leaf_shared(Vpn(0)));
    }

    #[test]
    fn small_map_into_directory_hole_degroups() {
        let (mut pt, mut cy, cost) = fixture();
        for b in 0..512u64 {
            pt.map_huge(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        assert_eq!(pt.leaf_slot_coords()[0].3, SlotKind::Dir);
        // Open a block-aligned hole, then drop a small page into it.
        pt.unmap(Vpn(512 * 10)).unwrap();
        assert_eq!(pt.huge_mapped(), 511);
        pt.map(
            Vpn(512 * 10 + 3),
            Pte::new(Pfn(42), PteFlags::empty()),
            &mut cy,
            &cost,
        )
        .unwrap();
        // The directory degrouped: lone huge leaves plus one small leaf.
        let kinds: Vec<SlotKind> = pt.leaf_slot_coords().iter().map(|c| c.3).collect();
        assert_eq!(kinds.iter().filter(|k| **k == SlotKind::Huge).count(), 511);
        assert_eq!(kinds.iter().filter(|k| **k == SlotKind::Small).count(), 1);
        assert_eq!(pt.translate(Vpn(512 * 10 + 3)).unwrap().pfn, Pfn(42));
        assert_eq!(pt.translate(Vpn(512 * 11 + 5)).unwrap().pfn, Pfn(512 * 11 + 5));
        assert_eq!(pt.mapped_pages(), 511 * 512 + 1);
    }

    #[test]
    fn demote_of_directory_member_degroups_then_splits() {
        let (mut pt, mut cy, cost) = fixture();
        for b in 0..512u64 {
            pt.map_huge(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        pt.demote_block(Vpn(512 * 5 + 9), &mut cy, &cost).unwrap();
        assert_eq!(pt.huge_mapped(), 511);
        assert_eq!(pt.mapped_pages(), 512 * 512);
        let p = pt.translate(Vpn(512 * 5 + 9)).unwrap();
        assert!(!p.is_huge());
        assert_eq!(p.pfn, Pfn(512 * 5 + 9));
        // Neighbouring blocks stayed huge.
        assert!(pt.translate(Vpn(512 * 6)).unwrap().is_huge());
    }

    #[test]
    #[should_panic(expected = "missed unshare")]
    fn unmapping_member_of_shared_directory_panics() {
        let (mut parent, mut cy, cost) = fixture();
        for b in 0..512u64 {
            parent
                .map_huge(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        let (base, n2, idx, _) = parent.leaf_slot_coords()[0];
        let arc = Arc::clone(parent.leaf_at(n2, idx));
        let mut child = PageTable::new();
        child.attach_leaf(base, arc, true, &mut cy, &cost).unwrap();
        let _ = parent.unmap(Vpn(0));
    }

    #[test]
    fn whole_block_update_flips_huge_pte_in_place() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge(Vpn(0), huge(1024), &mut cy, &cost).unwrap();
        let cow = Pte::new(
            Pfn(1024),
            PteFlags::USER | PteFlags::COW | PteFlags::HUGE,
        );
        let old = pt.update(Vpn(0), cow).unwrap();
        assert!(old.is_writable());
        let got = pt.translate(Vpn(100)).unwrap();
        assert!(got.is_cow() && got.is_huge() && !got.is_writable());
    }

    #[test]
    fn walkers_yield_huge_blocks_once_at_base() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map(Vpn(5), Pte::new(Pfn(5), PteFlags::empty()), &mut cy, &cost)
            .unwrap();
        pt.map_huge(Vpn(1024), huge(2048), &mut cy, &cost).unwrap();
        let mut seen = Vec::new();
        pt.for_each_leaf(|v, p| seen.push((v.0, p.is_huge())));
        assert_eq!(seen, vec![(5, false), (1024, true)]);
        let r = pt.leaves_in_range(Vpn(0), 4096);
        assert_eq!(r.len(), 2);
        // Mutable walk flips the whole block once.
        pt.for_each_leaf_mut(|_, p| {
            p.flags = p.flags.union(PteFlags::COW);
        });
        assert!(pt.huge_block(Vpn(1024)).unwrap().is_cow());
        // Slot order is address order over a table mixing small leaves,
        // lone huge slots and a directory (the whole second GiB), and a
        // ranged walk yields nothing from a subtree outside its range.
        let gib = 512 * 512u64;
        for b in 0..512u64 {
            pt.map_huge(Vpn(gib + b * 512), huge(gib + b * 512), &mut cy, &cost)
                .unwrap();
        }
        for v in [2 * gib + 7, 1 << 30] {
            pt.map(Vpn(v), Pte::new(Pfn(v), PteFlags::empty()), &mut cy, &cost)
                .unwrap();
        }
        let slots: Vec<(u64, SlotKind)> =
            pt.leaf_slot_coords().iter().map(|c| (c.0, c.3)).collect();
        assert_eq!(
            slots,
            vec![
                (0, SlotKind::Small),
                (1024, SlotKind::Huge),
                (gib, SlotKind::Dir),
                (2 * gib, SlotKind::Small),
                (1 << 30, SlotKind::Small),
            ]
        );
        let mut all = Vec::new();
        pt.for_each_leaf(|v, _| all.push(v.0));
        assert!(all.windows(2).all(|w| w[0] < w[1]), "ascending VPN order");
        assert_eq!(all.len(), 2 + 512 + 2);
        let vpns = |start: u64, pages: u64| -> Vec<u64> {
            pt.leaves_in_range(Vpn(start), pages).iter().map(|(v, _)| v.0).collect()
        };
        assert_eq!(vpns(1024, 512), vec![1024]);
        assert_eq!(vpns(6, 1018), Vec::<u64>::new(), "gap between slots");
        assert_eq!(vpns(gib + 3 * 512, 1024), vec![gib + 3 * 512, gib + 4 * 512]);
        assert_eq!(vpns(2 * gib, gib), vec![2 * gib + 7]);
        assert_eq!(vpns(3 * gib, 1 << 29), Vec::<u64>::new(), "empty subtrees");
        let dir_only: Vec<u64> = pt.leaf_slots_in(gib, 2 * gib).iter().map(|c| c.0).collect();
        assert_eq!(dir_only, vec![gib], "neighbouring subtrees are not entered");
    }

    #[test]
    fn take_leaves_returns_lone_huges_and_directories() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge(Vpn(0), huge(0), &mut cy, &cost).unwrap();
        for b in 512..1024u64 {
            pt.map_huge(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        let taken = pt.take_leaves();
        assert_eq!(taken.len(), 2);
        assert!(matches!(taken[0].1, TakenLeaf::Huge(_)));
        match &taken[1].1 {
            TakenLeaf::Node(arc) => {
                assert_eq!(arc.live(), 512);
                assert!(arc.present().iter().all(|p| p.is_huge()));
            }
            _ => panic!("directory expected"),
        }
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.huge_mapped(), 0);
    }

    #[test]
    fn injected_demote_failure_leaves_block_huge() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge(Vpn(0), huge(1024), &mut cy, &cost).unwrap();
        let plan = fpr_faults::FaultPlan::passive().fail_at(FaultSite::PtDemote, 0);
        let (r, _) = fpr_faults::with_plan(plan, || pt.demote_block(Vpn(3), &mut cy, &cost));
        assert_eq!(r, Err(MemError::OutOfMemory));
        assert_eq!(pt.huge_mapped(), 1, "block untouched on injected failure");
        assert!(pt.translate(Vpn(3)).unwrap().is_huge());
        // Retry succeeds.
        pt.demote_block(Vpn(3), &mut cy, &cost).unwrap();
        assert_eq!(pt.huge_mapped(), 0);
    }
}
