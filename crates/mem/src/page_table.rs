//! Four-level radix page table with refcount-shared leaf subtrees and
//! 2 MiB huge leaves, whose nodes cost what they hold.
//!
//! Intermediate nodes (levels 3..1) live in an arena (`Vec`) indexed by
//! `u32`, which keeps the structure compact; the arena plays the role of
//! the physical frames that would hold page-table nodes on real hardware.
//! The bottom level is different: each 512-entry block of leaf PTEs lives
//! in a reference-counted `LeafNode`, so an on-demand fork can hand the
//! *same* leaf subtree to parent and child by bumping a refcount instead
//! of copying 512 entries. A shared node is immutable (enforced with
//! `Arc::get_mut`); the owner must privatize the leaf (the private
//! `privatize_at` operation) before mutating, which is the deferred
//! copy the fault path performs.
//!
//! # Node layout
//!
//! The model prices a node at `pt_node_alloc` and an empty slot at nothing,
//! and a freshly exec'd process maps a handful of pages through nine nodes.
//! So a node is laid out to make creating, walking and dropping it cost in
//! proportion to the entries it *holds*, not to its 512 slots:
//!
//! * a **leaf node** is the hardware's 4 KiB: 512 packed 8-byte words
//!   (`pfn << 16 | flags`, zero where nothing is mapped — a held entry
//!   always carries `PRESENT` or `SWAP`, so its word never is), handed out
//!   zeroed, copied with one `memcpy` and kept when it is let go of
//!   ("Spare nodes" below). [`Pte`]
//!   is the unpacked view, converted in `LeafNode::get`/`set`. Beside the
//!   words sit three 512-bit maps — the entries, those holding a frame, and
//!   the private writable ones — and two counts;
//! * an **interior node** holds only what is linked: its entries stored
//!   densely in a `Vec` (so `live` is its length and a new node owns no
//!   heap memory), a 512-bit occupancy map that ordered walks enumerate
//!   by, and a direct `[u16; 512]` index from slot to position in the
//!   `Vec`, so that a lookup stays one indexed load per level. Removing an
//!   entry swap-removes it and re-points the index of the one entry that
//!   moved.
//!
//! A walk therefore visits the entries a node holds and nothing else:
//! `collect_slots` (behind every leaf enumeration — fork, `destroy`,
//! `unmap_range`, `check_summaries`), the directory grouping
//! and collapse, and drop glue.
//!
//! # Runs
//!
//! Every leaf-level operation works a *run* at a time: the positions of one
//! slot whose entries begin in one VMA or one range
//! (`SlotKind::positions`). A full run is gone through word by word, any
//! other by its map; its frames go to the frame table as runs of
//! consecutive frame numbers (`LeafNode::frame_runs`) and its swap slots
//! to the swap device in a second pass (`LeafNode::swap_slots`). A COW
//! child's node hands its frames out as the parent's run *with holes*: the
//! pages the child wrote, its private writable entries, whose frames are
//! copies (`Run`, `LeafRuns`).
//!
//! An arena node that empties goes on the free list as it is — `take`
//! leaves no trace of an entry behind, so an empty node is a new node — and
//! is handed out again without being rebuilt; it keeps the capacity of its
//! `Vec`. `take_leaves` likewise drains the table it has instead of
//! building another.
//!
//! # Spare nodes
//!
//! Page-table memory has a life cycle of its own, which does not go through
//! the host's allocator once it is warm: a bare-metal kernel takes a table
//! frame off a free list, and so does this one. A leaf node nobody holds any
//! more — torn down, emptied by `unmap`, traded for a huge PTE — is zeroed
//! by what it held (off its occupancy map when sparse, with one `fill` when
//! not) and kept on a thread's list of spares, whole: frame, map, counts and the
//! `Arc` around them. `LeafNode::new` takes from that list, and asserts in
//! debug builds that what it got is zero. An arena goes on a second list
//! when its table drops, every node cleared and every node but the root on
//! the free list, for `PageTable::new` to start from. The lists are
//! per-thread (a cell is a thread; nothing is shared, so nothing is locked)
//! and bounded by `SPARE_LEAVES` and `SPARE_ARENAS` × `SPARE_ARENA_NODES`;
//! what does not fit goes back to the host (`docs/ARCHITECTURE.md`, "Spare
//! lists").
//!
//! # Huge mappings
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
//! Intermediate nodes are created lazily on `PageTable::map_at` and torn
//! down eagerly when their last entry is removed, so the node count always
//! reflects the mapped footprint — the quantity an eager fork must copy.

use crate::addr::{Pfn, Vpn, HUGE_PAGES, PT_ENTRIES, PT_LEVELS};
use crate::cost::{CostModel, Cycles};
use crate::error::{MemError, MemResult};
use crate::pte::{Pte, PteFlags};
use fpr_faults::FaultSite;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Which of a node's 512 slots hold an entry: what an ordered walk
/// enumerates by, so that it visits held entries only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Occupancy([u64; PT_ENTRIES / 64]);

impl Occupancy {
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn test(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Sets slot `i` if `held`, else clears it, without a branch.
    fn assign(&mut self, i: usize, held: bool) {
        self.0[i / 64] = self.0[i / 64] & !(1 << (i % 64)) | (held as u64) << (i % 64);
    }

    fn count(&self) -> usize {
        // Baseline x86-64 counts bits without an instruction for it: what
        // is mostly a few pages is counted a nonzero word at a time.
        self.0.iter().filter(|&&w| w != 0).map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no slot is held: cheaper than a count, which baseline
    /// x86-64 has no instruction for.
    fn is_empty(&self) -> bool {
        self.0 == [0; PT_ENTRIES / 64]
    }

    /// The part of the map in `first..last`, going through the words the
    /// range reaches into only: a run is mostly a few pages.
    fn within(self, first: usize, last: usize) -> Occupancy {
        if (first, last) == (0, PT_ENTRIES) {
            return self;
        }
        let mut part = Occupancy::default();
        for w in first / 64..last.div_ceil(64) {
            let (from, to) = (first.saturating_sub(w * 64), (last - w * 64).min(64));
            part.0[w] = self.0[w] & u64::MAX << from & u64::MAX >> (64 - to);
        }
        part
    }

    /// The first slot of `first..last` that is not held.
    fn first_clear_in(&self, first: usize, last: usize) -> Option<usize> {
        let mut at = first;
        while at < last {
            let clear = !self.0[at / 64] >> (at % 64);
            if clear != 0 {
                return Some(at + clear.trailing_zeros() as usize).filter(|&j| j < last);
            }
            at = (at / 64 + 1) * 64;
        }
        None
    }

    /// The slots held here and not in `other`.
    fn minus(mut self, other: Occupancy) -> Occupancy {
        self.0.iter_mut().zip(other.0).for_each(|(mine, theirs)| *mine &= !theirs);
        self
    }

    /// Adds the slots `other` holds.
    fn merge(&mut self, other: Occupancy) {
        self.0.iter_mut().zip(other.0).for_each(|(mine, theirs)| *mine |= theirs);
    }

    /// The held slots of `first..last`, ascending.
    fn slots_in(self, first: usize, last: usize) -> HeldSlots {
        HeldSlots { left: self.within(first, last).0, word: first / 64 }
    }

    /// Every held slot, ascending.
    fn slots(self) -> HeldSlots {
        HeldSlots { left: self.0, word: 0 }
    }

    /// The first stretch of neighbouring held slots that starts at or after
    /// `at`, cut short at `end`.
    #[inline(always)]
    fn span_from(&self, at: usize, end: usize) -> Option<Range<usize>> {
        let (mut w, mut bits) = (at / 64, self.0.get(at / 64)? & u64::MAX << (at % 64));
        while bits == 0 {
            w += 1;
            bits = *self.0.get(w)?;
        }
        let start = w * 64 + bits.trailing_zeros() as usize;
        // The stretch runs on to the first empty slot above its start.
        let mut empty = !self.0[w] & u64::MAX << (start % 64);
        while empty == 0 {
            w += 1;
            empty = self.0.get(w).map_or(1, |bits| !bits);
        }
        (start < end).then(|| start..end.min(w * 64 + empty.trailing_zeros() as usize))
    }
}

/// Ascending iterator over the set bits of an [`Occupancy`].
#[derive(Debug, Clone, Default)]
pub(crate) struct HeldSlots {
    left: [u64; PT_ENTRIES / 64],
    word: usize,
}

impl Iterator for HeldSlots {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while let Some(bits) = self.left.get_mut(self.word) {
            if *bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                return Some(self.word * 64 + bit);
            }
            self.word += 1;
        }
        None
    }
}

/// One entry of an intermediate page-table node. An empty slot has none.
#[derive(Debug, Clone)]
enum Entry {
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

/// An entry an intermediate node holds, and the slot it holds it in.
#[derive(Debug, Clone)]
struct Held {
    slot: u16,
    entry: Entry,
}

/// One 512-slot intermediate page-table node, storing the entries it holds.
#[derive(Debug, Clone)]
struct Node {
    occupied: Occupancy,
    /// One more than the position in `held` of each slot's entry; zero
    /// where the slot is empty.
    index: [u16; PT_ENTRIES],
    /// The entries, in no particular order. Their number is the node's live
    /// count, for eager teardown.
    held: Vec<Held>,
}

// What the arena keeps per node, before it holds anything, fits the frame a
// hardware node would occupy; and a leaf's entries are exactly that frame.
const _: () = assert!(std::mem::size_of::<Node>() <= 4096);
const _: () = assert!(std::mem::size_of::<[u64; PT_ENTRIES]>() == 4096);

impl Node {
    fn new() -> Node {
        Node {
            occupied: Occupancy::default(),
            index: [0; PT_ENTRIES],
            held: Vec::new(),
        }
    }

    fn live(&self) -> usize {
        self.held.len()
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&Entry> {
        match self.index[i] {
            0 => None,
            at => Some(&self.held[at as usize - 1].entry),
        }
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> Option<&mut Entry> {
        match self.index[i] {
            0 => None,
            at => Some(&mut self.held[at as usize - 1].entry),
        }
    }

    /// Links `entry` into the empty slot `i`.
    fn put(&mut self, i: usize, entry: Entry) {
        assert_eq!(self.index[i], 0, "slot linked twice");
        self.held.push(Held { slot: i as u16, entry });
        self.index[i] = self.held.len() as u16;
        self.occupied.set(i);
    }

    /// Unlinks and returns the entry of slot `i`, leaving the slot as if it
    /// had never held one.
    fn take(&mut self, i: usize) -> Entry {
        let at = (self.index[i] as usize).checked_sub(1).expect("take from an empty slot");
        let taken = self.held.swap_remove(at);
        if let Some(moved) = self.held.get(at) {
            self.index[moved.slot as usize] = at as u16 + 1;
        }
        self.index[i] = 0;
        self.occupied.clear(i);
        taken.entry
    }

    /// Unlinks every entry.
    fn clear(&mut self) {
        for held in self.held.drain(..) {
            self.index[held.slot as usize] = 0;
        }
        self.occupied = Occupancy::default();
    }

    /// The entries of slots `first..last`, ascending by slot.
    fn entries_in(&self, first: usize, last: usize) -> impl Iterator<Item = (usize, &Entry)> {
        let slots = self.occupied.slots_in(first, last);
        slots.map(|i| (i, &self.held[self.index[i] as usize - 1].entry))
    }

    /// Every entry, ascending by slot.
    fn entries(&self) -> impl Iterator<Item = (usize, &Entry)> {
        self.entries_in(0, PT_ENTRIES)
    }

    /// The huge PTEs this node holds, if it holds nothing else.
    fn all_huge(&self) -> Option<impl Iterator<Item = (usize, Pte)> + '_> {
        let huge = |h: &Held| match h.entry {
            Entry::Huge(p) => Some((h.slot as usize, p)),
            _ => None,
        };
        self.held.iter().all(|h| huge(h).is_some()).then(|| self.held.iter().filter_map(huge))
    }

    /// Recounts the map and the index against the entries held.
    fn check(&self) -> Result<(), String> {
        if self.occupied.count() != self.held.len() {
            return Err(format!("map counts {}, holds {}", self.occupied.count(), self.held.len()));
        }
        for (i, &at) in self.index.iter().enumerate() {
            let entry = self.held.get((at as usize).wrapping_sub(1));
            let points_back = entry.is_some_and(|h| h.slot as usize == i);
            if self.occupied.test(i) != (at != 0) || (at != 0 && !points_back) {
                return Err(format!("slot {i}: index {at}, map {}", self.occupied.test(i)));
            }
        }
        Ok(())
    }
}

/// Spare leaf nodes a thread keeps: the 32 a `fork(Cow)` child of a 64 MiB
/// parent is built from and torn down into, and as many again for a warm
/// pool being refilled while it exits. 4 KiB each.
const SPARE_LEAVES: usize = 64;
/// Spare arenas a thread keeps: a warm pool's worth of children and the
/// requests in flight beside them.
const SPARE_ARENAS: usize = 8;
/// Nodes a spare arena keeps, ≈ 1 KiB each: ten times the paths of an
/// exec'd image. A bigger table's arena is cut down to this, and so is the
/// room each node keeps for entries and the arena for slot coordinates, so
/// that a spare arena is 0.2 MiB at most whatever table it came from.
const SPARE_ARENA_NODES: usize = 64;

/// Entries below which a retired leaf is zeroed word by word off its
/// occupancy map instead of with one `fill`: the 4 KiB `fill` takes 24 ns,
/// the map 1 ns an entry (2 ns for one entry, 31 for 32, 600 for 256).
const SPARSE_LEAF: u16 = 32;

/// What a thread keeps of the page tables it has torn down.
struct Spares {
    /// Leaf nodes, all zero, each the only holder of itself.
    leaves: Vec<Arc<LeafNode>>,
    /// Arenas with their free list and their scratch list: every node
    /// empty, node 0 the root, all others free, the scratch list empty.
    arenas: Vec<(Vec<Node>, Vec<u32>, Vec<Slot>)>,
}

thread_local! {
    static SPARES: RefCell<Spares> = const { RefCell::new(Spares { leaves: Vec::new(), arenas: Vec::new() }) };
}

/// What a [`LeafNode`] keeps count of beside its entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LeafCounts {
    /// Entries (present PTEs and swap entries).
    live: u16,
    /// Swap entries: mapped, but not resident.
    swap_entries: u16,
}

impl LeafCounts {
    /// Adds (`sign` = 1) or removes (−1) `pte`'s share of the counts.
    fn add(&mut self, pte: Option<Pte>, sign: i16) {
        let Some(pte) = pte else { return };
        self.live = self.live.wrapping_add_signed(sign);
        if pte.is_swap() {
            self.swap_entries = self.swap_entries.wrapping_add_signed(sign);
        }
    }
}

/// Whether a packed word is a writable entry that is not `MAP_SHARED`.
fn private_writable(word: u64) -> bool {
    (word & WRITABLE != 0) & (word & SHARED == 0)
}

/// Bits of a packed leaf word below the frame number: the [`PteFlags`].
const FLAG_BITS: u32 = 16;

/// The flags a fork reads and rewrites in the packed word itself.
const WRITABLE: u64 = PteFlags::WRITABLE.0 as u64;
const COW: u64 = PteFlags::COW.0 as u64;
const SHARED: u64 = PteFlags::SHARED.0 as u64;
const PRESENT: u64 = PteFlags::PRESENT.0 as u64;

/// A 512-entry block of leaf PTEs, shareable between page tables.
///
/// `Arc::strong_count > 1` means the subtree is shared by an on-demand
/// fork and must be privatized before any mutation.
///
/// The entries are 512 packed words, zero where nothing is mapped. Beside
/// them a node keeps three maps — of the words that are not zero, of those
/// that hold a frame (the others are swap entries), and of the *private
/// writable* ones — and two counts, so that the fork walk can share the
/// node without reading one: how many entries there are, and how many
/// hold no frame.
/// Every write goes through [`LeafNode::set`] or a run method, which keep
/// all of it; [`PageTable::check_summaries`] recounts.
#[derive(Debug)]
pub(crate) struct LeafNode {
    words: Box<[u64; PT_ENTRIES]>,
    occupied: Occupancy,
    present: Occupancy,
    /// The entries that are writable and not `MAP_SHARED`: what sharing the
    /// node for the first time must write-protect and COW-mark, so empty in
    /// every node that is shared. In a COW child these are the pages it
    /// wrote, whose frames are the holes in the parent's run
    /// ([`LeafRuns`]).
    private: Occupancy,
    counts: LeafCounts,
}

impl LeafNode {
    /// An empty node with one holder: a spare of this thread's if it has
    /// one, else 4 KiB of the host's. To be filled through
    /// [`Arc::get_mut`] and wired into a table, or handed back with
    /// [`Self::retire`].
    pub(crate) fn new() -> Arc<LeafNode> {
        let spare = SPARES.with(|s| s.borrow_mut().leaves.pop());
        let leaf = spare.unwrap_or_else(|| {
            // `vec!` of zeroes asks the allocator for zeroed memory.
            let words = vec![0u64; PT_ENTRIES].into_boxed_slice();
            Arc::new(LeafNode {
                words: words.try_into().expect("a node of PT_ENTRIES words"),
                occupied: Occupancy::default(),
                present: Occupancy::default(),
                private: Occupancy::default(),
                counts: LeafCounts::default(),
            })
        });
        debug_assert!(leaf.is_zero(), "a new node holds nothing");
        leaf
    }

    /// Whether the node holds nothing and says so: every word zero, the
    /// maps empty, the counts zero.
    fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
            && (self.occupied, self.present, self.private) == Default::default()
            && self.counts == LeafCounts::default()
    }

    /// Lets go of `leaf`, which no table of the caller's links any more. If
    /// nobody else holds it either it becomes a spare — zeroed by what it
    /// holds, off its map when sparse and with one `fill` when not, never
    /// both — unless the thread has its fill of them.
    pub(crate) fn retire(mut leaf: Arc<LeafNode>) {
        SPARES.with(|s| {
            let spares = &mut s.borrow_mut().leaves;
            if spares.len() == SPARE_LEAVES {
                return;
            }
            // Held by another table still, that one lets go of it last.
            let Some(node) = Arc::get_mut(&mut leaf) else { return };
            if node.counts.live < SPARSE_LEAF {
                node.occupied.slots().for_each(|j| node.words[j] = 0);
            } else {
                node.words.fill(0);
            }
            (node.occupied, node.present, node.private, node.counts) = Default::default();
            spares.push(leaf);
        });
    }

    /// A node of this table's own holding what `self` holds: the deferred
    /// copy of a node a fork shared.
    fn private_copy(&self) -> Arc<LeafNode> {
        let mut copy = LeafNode::new();
        let own = Arc::get_mut(&mut copy).expect("a new node has one holder");
        own.words.copy_from_slice(&self.words[..]);
        (own.occupied, own.present, own.private, own.counts) = (self.occupied, self.present, self.private, self.counts);
        copy
    }

    /// `pte` as a packed word, and back.
    pub(crate) fn pack(pte: Pte) -> u64 {
        pte.pfn.0 << FLAG_BITS | pte.flags.0 as u64
    }

    pub(crate) fn unpack(word: u64) -> Pte {
        Pte {
            pfn: Pfn(word >> FLAG_BITS),
            flags: PteFlags(word as u16),
        }
    }

    /// Entry `j`.
    #[inline]
    pub(crate) fn get(&self, j: usize) -> Option<Pte> {
        match self.words[j] {
            0 => None,
            word => Some(Self::unpack(word)),
        }
    }

    /// Number of entries.
    pub(crate) fn live(&self) -> u64 {
        self.counts.live as u64
    }

    /// Number of swap entries.
    pub(crate) fn swap_entries(&self) -> u64 {
        self.counts.swap_entries as u64
    }

    /// The entries with their in-node indices, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, Pte)> + '_ {
        self.occupied.slots().map(|j| (j, Self::unpack(self.words[j])))
    }

    /// How to pass over the entries in `range` — a *run*, the part of a
    /// node one VMA covers, is what every leaf-level operation works in:
    /// `(dense, sparse)`, the range itself to go through word by word if it
    /// is full, else the map of its entries to go by. The other of the two
    /// is empty.
    fn split(&self, range: Range<usize>) -> (Range<usize>, Occupancy) {
        let held = self.occupied.within(range.start, range.end);
        if held.count() == range.len() {
            (range, Occupancy::default())
        } else {
            (0..0, held)
        }
    }

    /// Whether an entry lies in `range`, by the map.
    pub(crate) fn holds_in(&self, range: Range<usize>) -> bool {
        !self.occupied.within(range.start, range.end).is_empty()
    }

    /// Number of entries in `range`, by the map.
    pub(crate) fn live_in(&self, range: Range<usize>) -> u64 {
        self.occupied.within(range.start, range.end).count() as u64
    }

    /// `range` cut short behind its first `n` entries.
    pub(crate) fn first_in(&self, range: Range<usize>, n: u64) -> Range<usize> {
        let mut held = self.occupied.slots_in(range.start, range.end);
        range.start..held.nth(n as usize).unwrap_or(range.end)
    }

    /// Number of entries in `range` that hold a frame, by the map.
    pub(crate) fn present_in(&self, range: Range<usize>) -> u64 {
        self.present.within(range.start, range.end).count() as u64
    }

    /// Whether an entry in `range` is writable.
    pub(crate) fn writable_in(&self, range: Range<usize>) -> bool {
        let (dense, sparse) = self.split(range);
        dense.chain(sparse.slots()).any(|j| self.words[j] & WRITABLE != 0)
    }

    /// The frames of the entries in `range`, in entry order, as [`Run`]s
    /// of consecutive frame numbers, some with holes: what
    /// [`crate::phys::PhysMemory::retain`] and `release` take. A swap entry
    /// holds no frame and ends a run. In a huge directory (`dir`) each
    /// entry is a 2 MiB block, a run of [`HUGE_PAGES`] frames of its own.
    pub(crate) fn frame_runs(&self, range: Range<usize>, dir: bool) -> FrameRuns<'_> {
        if dir {
            let blocks = self.present.slots_in(range.start, range.end);
            return FrameRuns::Blocks(blocks, &self.words);
        }
        let left = range.start..range.start;
        FrameRuns::Pages(LeafRuns { words: &self.words, leaf: self, end: range.end, left, singles: 0 })
    }

    /// The swap slots of the swap entries in `range`, ascending: the second
    /// pass beside [`Self::frame_runs`].
    pub(crate) fn swap_slots(&self, range: Range<usize>) -> impl Iterator<Item = u64> + Clone + '_ {
        // Most nodes hold none, and then not one word of the map is read.
        let swapped = match self.swap_entries() {
            0 => HeldSlots { left: Default::default(), word: PT_ENTRIES / 64 },
            _ => self.occupied.minus(self.present).slots_in(range.start, range.end),
        };
        swapped.map(|j| self.words[j] >> FLAG_BITS)
    }

    /// Copies the entries `src` holds in `range` into this node, which
    /// holds none there, each packed word through `copy` — the word itself,
    /// or for an eager fork the word with its frame's copy, the flags as
    /// they were — with the maps and the counts brought up to date once.
    /// With `cow` each copy is write-protected and marked copy-on-write if
    /// the entry was writable or marked already — what a fork leaves a
    /// child of a private mapping — without a branch on the packed word, so
    /// none of the copies is private writable; without, the copies are as
    /// private writable as their entries. The entries go to `copy` in
    /// ascending order.
    pub(crate) fn copy_run(&mut self, src: &LeafNode, range: Range<usize>, cow: bool, mut copy: impl FnMut(u64) -> u64) {
        let mut copy = |mine: &mut u64, theirs: u64| {
            let copied = copy(theirs);
            debug_assert_eq!(copied as u16, theirs as u16, "a copy keeps the flags");
            let marks = cow & (copied & (WRITABLE | COW) != 0);
            let word = if marks { copied & !WRITABLE | COW } else { copied };
            debug_assert!(*mine == 0, "entry mapped twice");
            *mine = word;
        };
        let (dense, sparse) = src.split(range.clone());
        let pairs = self.words[dense.clone()].iter_mut().zip(&src.words[dense]);
        pairs.for_each(|(mine, &theirs)| copy(mine, theirs));
        sparse.slots().for_each(|j| copy(&mut self.words[j], src.words[j]));
        let held = src.occupied.within(range.start, range.end);
        let present = if src.counts.swap_entries == 0 { held } else { src.present.within(range.start, range.end) };
        self.occupied.merge(held);
        self.present.merge(present);
        if !cow {
            self.private.merge(src.private.within(range.start, range.end));
        }
        self.counts.live += held.count() as u16;
        self.counts.swap_entries += if src.counts.swap_entries == 0 { 0 } else { held.minus(present).count() as u16 };
    }

    /// Write-protects every writable entry in `range`, in place — and with
    /// `cow` marks it copy-on-write — handing `undo` the index and the
    /// former value of each: what a fork does to the parent's side of a
    /// private mapping, and `mprotect` to a mapping it takes writes from.
    pub(crate) fn write_protect_run(&mut self, range: Range<usize>, cow: bool, mut undo: impl FnMut(usize, Pte)) {
        self.private = self.private.minus(self.private.within(range.start, range.end));
        let (dense, sparse) = self.split(range);
        for j in dense.chain(sparse.slots()) {
            let word = self.words[j];
            if word & WRITABLE != 0 {
                undo(j, Self::unpack(word));
                self.words[j] = word & !WRITABLE | if cow { COW } else { 0 };
            }
        }
    }

    /// Removes the entries in `range` and returns how many there were.
    pub(crate) fn clear_run(&mut self, range: Range<usize>) -> u64 {
        let held = self.occupied.within(range.start, range.end);
        let mut cleared = 0;
        for j in held.slots() {
            self.counts.add(self.get(j), -1);
            (self.words[j], cleared) = (0, cleared + 1);
        }
        self.occupied = self.occupied.minus(held);
        self.present = self.present.minus(held);
        self.private = self.private.minus(held);
        cleared
    }

    /// Writes an entry into each empty position of `range`, ascending, as
    /// `entry` makes it for that position, going past the entries there
    /// are and stopping before a swap entry or at the first position
    /// `entry` refuses; brings the maps and the counts up to date once.
    /// Returns the position it stopped at — `range.end` if it went through
    /// — how many entries it wrote, and the refusal. What a run of demand
    /// fills writes: a present entry each.
    #[inline]
    pub(crate) fn fill_run(&mut self, range: Range<usize>, mut entry: impl FnMut(usize) -> MemResult<Pte>) -> (usize, u64, MemResult<()>) {
        let (mut filled, mut written, mut private) = (Occupancy::default(), 0, Occupancy::default());
        let mut at = range.start;
        let result = loop {
            if at == range.end {
                break Ok(());
            }
            match self.words[at] {
                0 => {}
                word if word & PRESENT == 0 => break Ok(()),
                _ => {
                    at += 1;
                    continue;
                }
            }
            let pte = match entry(at) {
                Ok(pte) => pte,
                Err(e) => break Err(e),
            };
            debug_assert!(pte.is_present(), "a fill writes a present entry");
            assert!(pte.pfn.0 >> (64 - FLAG_BITS) == 0, "frame number too wide for a PTE");
            let word = Self::pack(pte);
            self.words[at] = word;
            filled.set(at);
            private.assign(at, private_writable(word));
            (at, written) = (at + 1, written + 1);
        };
        self.occupied.merge(filled);
        self.present.merge(filled);
        self.private.merge(private);
        self.counts.live += written;
        (at, written as u64, result)
    }

    /// Writes entry `j` — the one way an entry changes — and returns what
    /// it held.
    #[inline]
    pub(crate) fn set(&mut self, j: usize, pte: Option<Pte>) -> Option<Pte> {
        let old = self.get(j);
        let word = match pte {
            Some(p) => {
                // A zero word is an empty slot, and the frame number shares
                // the word with the flags.
                assert!(
                    p.flags.intersects(PteFlags::PRESENT | PteFlags::SWAP),
                    "an entry is present or swapped"
                );
                assert!(p.pfn.0 >> (64 - FLAG_BITS) == 0, "frame number too wide for a PTE");
                Self::pack(p)
            }
            None => 0,
        };
        self.words[j] = word;
        self.occupied.assign(j, word != 0);
        self.present.assign(j, word & PRESENT != 0);
        self.private.assign(j, private_writable(word));
        self.counts.add(old, -1);
        self.counts.add(pte, 1);
        old
    }

    /// Recounts the maps and the counts against the words.
    fn check(&self) -> Result<(), String> {
        let mut held = LeafCounts::default();
        for (j, &word) in self.words.iter().enumerate() {
            let maps = (self.occupied.test(j), self.present.test(j), self.private.test(j));
            if maps != (word != 0, self.get(j).is_some_and(Pte::is_present), private_writable(word)) {
                return Err(format!("entry {j}: word {word:#x}, maps {maps:?}"));
            }
            held.add(self.get(j), 1);
        }
        if self.counts != held {
            return Err(format!("keeps {:?}, holds {held:?}", self.counts));
        }
        Ok(())
    }
}

/// Frames of neighbouring entries, in entry order: the entries hold
/// `frames.start`, `frames.start + 1`, … in turn — but for the run's
/// *holes*, entries that hold a frame of their own. A run with holes is a
/// COW child's: the parent's run, and in it the pages the child wrote, the
/// node's private writable entries.
#[derive(Debug, Clone)]
pub(crate) struct Run<'a> {
    pub(crate) frames: Range<u64>,
    /// The node whose private writable entries are the holes, and the
    /// entry that stands for `frames.start`.
    holes: Option<(&'a LeafNode, usize)>,
}

impl From<Range<u64>> for Run<'_> {
    fn from(frames: Range<u64>) -> Self {
        Run { frames, holes: None }
    }
}

impl<'a> Run<'a> {
    /// The holes, ascending: each one's offset in the run and its own
    /// frame, which is never one of the run's. (A private writable entry
    /// that holds the run's frame is none.)
    pub(crate) fn holes(&self) -> impl Iterator<Item = (usize, u64)> + 'a {
        let Range { start: first, end } = self.frames;
        let (slots, words, at): (_, &[u64], _) = match self.holes {
            Some((leaf, at)) => (leaf.private.slots_in(at, at + (end - first) as usize), &leaf.words[..], at),
            None => (HeldSlots::default(), &[], 0),
        };
        slots.map(move |j| (j - at, words[j] >> FLAG_BITS)).filter(move |&(k, own)| own != first + k as u64)
    }

    /// Whether the run has holes to go round.
    pub(crate) fn holed(&self) -> bool {
        self.holes.is_some()
    }

    /// The run's first `n` frames (all of them if it has fewer).
    pub(crate) fn cut(self, n: u64) -> Run<'a> {
        let start = self.frames.start;
        Run { frames: start..self.frames.end.min(start + n), ..self }
    }

    /// The run as ranges of consecutive frames, in entry order: the
    /// stretches between its holes, and each hole's own frame.
    pub(crate) fn pieces(self) -> impl Iterator<Item = Range<u64>> + 'a {
        let Range { start: first, end } = self.frames;
        let mut at = first;
        let ends = self.holes().map(move |(k, own)| (first + k as u64, own..own + 1));
        ends.map(Some).chain([None]).flat_map(move |hole| {
            let (stop, own) = hole.map_or((end, None), |(stop, own)| (stop, Some(own)));
            let between = std::mem::replace(&mut at, stop + 1)..stop;
            [(!between.is_empty()).then_some(between), own].into_iter().flatten()
        })
    }
}

/// Entries checked together once a quarter of their stretch has failed
/// its check. A block that fails as well hands its frames out as runs of
/// one, which cost about what a frame cost before there were runs; a
/// finder that tests frame by frame where a run ends costs more.
const RUN_BLOCK: usize = 8;

/// Whether the frames of `words` are `first`, `first + 1`, …, after a look
/// at the last, which scattered frames fail for nothing. The rest is one
/// OR over all of them, which vectorises on baseline x86-64 where a `&&` of
/// compares does not — but a [`RUN_BLOCK`], whose length the compiler
/// knows, it turns into compares that stop at the first that fails.
#[inline]
fn runs_from(words: &[u64], first: u64) -> bool {
    let last = words.len() as u64 - 1;
    if words[last as usize] >> FLAG_BITS != first + last {
        return false;
    }
    let off = words.iter().enumerate().fold(0, |off, (k, &word)| off | (word >> FLAG_BITS) ^ (first + k as u64));
    off == 0
}

/// The [`Run`]s [`LeafNode::frame_runs`] yields for a small-page node. Each
/// stretch of neighbouring present entries (a swap entry ends one) is
/// checked a quarter of a node at a time, and is one run if its frames are
/// consecutive — a populated heap's are. From the first quarter that fails
/// the stretch is cut where the check fails: into runs of whole
/// [`RUN_BLOCK`]s that pass the same check, and runs of one for the frames
/// of each block that does not.
///
/// A quarter that fails may be a COW child's: the parent's run, with the
/// pages the child wrote in it — its private writable entries — holding
/// copies. So before the blocks, the rest of the stretch is checked once
/// more, whole, with those entries as holes ([`Self::with_holes`]), and
/// goes out as one run with holes if the others run on. An unbroken node
/// never gets there, and one whose entries in the stretch are all private
/// writable — an exec'd process's — or none — a parent's after its first
/// fork — gets no further than a look at its map. (Cut into blocks
/// instead, each hole of a `cow_touch` child's node — one page in 16
/// written — makes eight runs of one, and its teardown costs 3× a child's
/// that wrote the same pages side by side.)
///
/// All of it is scalars and two references, so that the compiler keeps it
/// in registers: with a copy of the occupancy map in it, it lived on the
/// stack and a scattered node's runs of one cost 1.4× a frame before runs.
#[derive(Debug, Clone)]
pub(crate) struct LeafRuns<'a> {
    words: &'a [u64; PT_ENTRIES],
    leaf: &'a LeafNode,
    /// The end of the range the runs are of.
    end: usize,
    /// What is left of the stretch being cut; empty between stretches,
    /// where it marks how far the map has been gone through.
    left: Range<usize>,
    /// Where the entries stop that go out as runs of one: the end of the
    /// block that failed its check.
    singles: usize,
}

impl<'a> LeafRuns<'a> {
    /// The next entry's frame as a run of one, if it is one of a block
    /// that failed its check.
    #[inline(always)]
    fn single(&mut self) -> Option<Run<'a>> {
        let j = self.left.start;
        (j < self.singles).then(|| {
            self.left.start += 1;
            let pfn = self.words[j] >> FLAG_BITS;
            Run::from(pfn..pfn + 1)
        })
    }

    /// Whether the rest `from..` of the stretch that begins at `start` runs
    /// on from frame `first` with the node's private writable entries in it
    /// as holes: it must hold some, and others, and only the others must run
    /// on. Their frames are taken for what they differ from the run's by,
    /// summed: zero only where every one is zero, and a sum whose holes'
    /// terms can be taken out again exactly (frame numbers are too narrow
    /// for it to wrap), so one pass over the words checks them. No hole's
    /// own frame may be one the run holds elsewhere. Returns the run's first
    /// frame: `first`, or — where the stretch's own first entry is a hole —
    /// the one its first entry that is not implies. Out of line and cold:
    /// in `next`, its body cost the runs of an unbroken node ≈ 5 %.
    #[cold]
    #[inline(never)]
    fn with_holes(&self, start: usize, from: usize, first: u64) -> Option<u64> {
        let to = self.left.end;
        let holes = self.leaf.private.within(from, to);
        if holes.is_empty() {
            return None;
        }
        let kept = holes.first_clear_in(from, to)?;
        let first = match from == start && holes.test(start) {
            true => (self.words[kept] >> FLAG_BITS).checked_sub((kept - start) as u64)?,
            false => first,
        };
        let expect = first + (from - start) as u64;
        let off = |j: usize, word: u64| (word >> FLAG_BITS) ^ (expect + (j - from) as u64);
        let words = self.words[from..to].iter().enumerate();
        let missed = words.fold(0, |sum, (k, &word)| sum + off(from + k, word));
        let (mut in_holes, mut stray) = (0, false);
        holes.slots().for_each(|j| {
            in_holes += off(j, self.words[j]);
            let at = (self.words[j] >> FLAG_BITS).wrapping_sub(first);
            stray |= (at < (to - start) as u64) & (at != (j - start) as u64);
        });
        (in_holes == missed && !stray).then_some(first)
    }
}

impl<'a> Iterator for LeafRuns<'a> {
    type Item = Run<'a>;

    #[inline(always)]
    fn next(&mut self) -> Option<Run<'a>> {
        if let Some(single) = self.single() {
            return Some(single);
        }
        // A new stretch a quarter of a node at a time; from where a quarter
        // failed, the rest of it once with holes, then a RUN_BLOCK at a time.
        let mut block = RUN_BLOCK;
        if self.left.is_empty() {
            self.left = self.leaf.present.span_from(self.left.end, self.end)?;
            block = PT_ENTRIES / 4;
        }
        let (start, mut first) = (self.left.start, self.words[self.left.start] >> FLAG_BITS);
        let (mut end, mut holed) = (start, false);
        while end < self.left.end {
            let next = (end + block).min(self.left.end);
            let words = &self.words[end..next];
            let expect = first + (end - start) as u64;
            let runs = match <&[u64; RUN_BLOCK]>::try_from(words) {
                Ok(whole) => runs_from(whole, expect),
                Err(_) => runs_from(words, expect),
            };
            if runs {
                end = next;
            } else if block > RUN_BLOCK {
                match self.with_holes(start, end, first) {
                    Some(from) => (first, end, holed) = (from, self.left.end, true),
                    None => block = RUN_BLOCK,
                }
            } else {
                self.singles = next;
                break;
            }
        }
        // The first frame of a block that failed is a run of one.
        end += (end == start) as usize;
        self.left.start = end;
        let holes = holed.then_some((self.leaf, start));
        Some(Run { frames: first..first + (end - start) as u64, holes })
    }

    /// [`Self::next`] in a loop, with the runs of one of a block that
    /// failed handed out from a loop of their own, which the compiler
    /// specialises for them: how `retain` and `release` go through a node.
    #[inline(always)]
    fn fold<B, F: FnMut(B, Run<'a>) -> B>(mut self, mut acc: B, mut f: F) -> B {
        while let Some(run) = self.next() {
            acc = f(acc, run);
            while let Some(single) = self.single() {
                acc = f(acc, single);
            }
        }
        acc
    }
}

/// The runs [`LeafNode::frame_runs`] yields: a small-page node's as
/// [`LeafRuns`] finds them, a huge directory's a block at a time.
#[derive(Debug, Clone)]
pub(crate) enum FrameRuns<'a> {
    Pages(LeafRuns<'a>),
    Blocks(HeldSlots, &'a [u64; PT_ENTRIES]),
}

impl<'a> FrameRuns<'a> {
    /// The runs as ranges of consecutive frames, in entry order
    /// ([`Run::pieces`]).
    pub(crate) fn ranges(self) -> impl Iterator<Item = Range<u64>> + 'a {
        self.flat_map(Run::pieces)
    }
}

impl<'a> Iterator for FrameRuns<'a> {
    type Item = Run<'a>;

    #[inline(always)]
    fn next(&mut self) -> Option<Run<'a>> {
        match self {
            FrameRuns::Pages(runs) => runs.next(),
            FrameRuns::Blocks(held, words) => held.next().map(|j| block(words[j] >> FLAG_BITS).into()),
        }
    }

    /// The two kinds' own loops: [`LeafRuns::fold`] for pages.
    #[inline(always)]
    fn fold<B, F: FnMut(B, Run<'a>) -> B>(self, acc: B, mut f: F) -> B {
        match self {
            FrameRuns::Pages(runs) => runs.fold(acc, f),
            FrameRuns::Blocks(held, words) => held.fold(acc, |acc, j| f(acc, block(words[j] >> FLAG_BITS).into())),
        }
    }
}

/// The frames of the 2 MiB block whose head is `pfn`.
fn block(pfn: u64) -> Range<u64> {
    pfn..pfn + HUGE_PAGES
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

    /// The in-node positions of the entries of the slot of this kind at
    /// `base` that begin at a page of `[lo, hi)`: a *run*. A lone block is
    /// the entry at position 0.
    pub(crate) fn positions(self, base: u64, lo: u64, hi: u64) -> Range<usize> {
        let (stride, end) = (self.stride(), base + PT_ENTRIES as u64 * self.stride());
        let at = |vpn: u64| (vpn.clamp(base, end) - base).div_ceil(stride) as usize;
        at(lo)..at(hi)
    }

    /// Base VPN of the slot of this kind whose span covers `vpn`: the GiB
    /// of a directory, the 2 MiB block of everything else.
    fn base_of(self, vpn: Vpn) -> u64 {
        match self {
            SlotKind::Dir => vpn.0 & !(HUGE_PAGES * PT_ENTRIES as u64 - 1),
            SlotKind::Small | SlotKind::Huge => vpn.huge_base().0,
        }
    }
}

/// Whether `slot` is the slot a descent for `vpn` would end at, as far as
/// its base and kind can tell: what the `_at` methods assert of coordinates
/// a caller kept from an earlier [`PageTable::find`].
fn covers((base, _, _, kind): Slot, vpn: Vpn) -> bool {
    base == kind.base_of(vpn)
}

/// Coordinates of one leaf-bearing slot: `(base VPN, arena node, slot
/// index, kind)`. Invalidated by any map/unmap/attach/detach, promotion or
/// demotion; rewriting an entry, or privatizing the node, keeps them.
pub(crate) type Slot = (u64, u32, usize, SlotKind);

/// One leaf-bearing slot of a table, read-only: what a pass that goes a
/// node at a time over a whole table reads of it
/// ([`crate::AddressSpace::leaf_slots`]).
#[derive(Debug, Clone, Copy)]
pub struct LeafSlot<'a> {
    base: u64,
    kind: SlotKind,
    entry: &'a Entry,
}

impl<'a> LeafSlot<'a> {
    /// The node's identity if another table holds it too — an on-demand
    /// fork shared it, and its entries' references are held once for all
    /// of them — the same in each such table. A lone block is never shared.
    pub fn shared(&self) -> Option<usize> {
        match self.entry {
            Entry::Leaf(arc) if Arc::strong_count(arc) > 1 => Some(Arc::as_ptr(arc) as usize),
            _ => None,
        }
    }

    /// The frames of the present entries, ascending, as runs of consecutive
    /// frame numbers — a 2 MiB block is one run of [`HUGE_PAGES`] — the
    /// runs `retain` and `release` take.
    pub fn frame_runs(&self) -> impl Iterator<Item = Range<u64>> + 'a {
        let (lone, members) = match *self.entry {
            Entry::Leaf(ref leaf) => (None, Some(leaf.frame_runs(0..PT_ENTRIES, self.kind == SlotKind::Dir))),
            Entry::Huge(p) => (p.is_present().then(|| block(p.pfn.0)), None),
            Entry::Table(_) => unreachable!("a leaf slot holds no table"),
        };
        lone.into_iter().chain(members.into_iter().flat_map(FrameRuns::ranges))
    }

    /// The swap slots of the swap entries, ascending.
    pub fn swap_slots(&self) -> impl Iterator<Item = u64> + 'a {
        let leaf = match self.entry {
            Entry::Leaf(leaf) => Some(leaf.swap_slots(0..PT_ENTRIES)),
            _ => None,
        };
        leaf.into_iter().flatten()
    }

    /// The stretches of neighbouring entries, ascending, as the pages they
    /// span: every page of one is mapped, present or swapped.
    pub fn spans(&self) -> impl Iterator<Item = Range<Vpn>> + 'a {
        let (map, stride) = match self.entry {
            Entry::Leaf(leaf) => (leaf.occupied, self.kind.stride()),
            // A lone block: one entry, a block wide.
            _ => (Occupancy([1, 0, 0, 0, 0, 0, 0, 0]), HUGE_PAGES),
        };
        let (base, mut at) = (self.base, 0);
        std::iter::from_fn(move || {
            let span = map.span_from(at, PT_ENTRIES)?;
            at = span.end;
            Some(Vpn(base + span.start as u64 * stride)..Vpn(base + span.end as u64 * stride))
        })
    }
}

/// What [`PageTable::unmap_range`] takes out of a slot, as it is about to,
/// and [`PageTable::take_leaves`] out of a table.
#[derive(Debug)]
pub(crate) enum Unmapped<'a> {
    /// The entries of a node at a run of positions; a huge directory's,
    /// 2 MiB blocks, with `true`.
    Run(&'a LeafNode, Range<usize>, bool),
    /// A lone 2 MiB block.
    Block(Pte),
}

/// The link a descent followed at each level, by level: `(node, slot)`.
type Path = [(u32, usize); PT_LEVELS];

/// Where an allocating walk of the upper levels ended.
enum Walked {
    /// At the intermediate node of the level asked for.
    Table(u32),
    /// At a huge directory covering the GiB: `(level-2 node, slot)`.
    Dir(u32, usize),
}

/// A four-level page table mapping [`Vpn`]s to [`Pte`]s.
#[derive(Debug, Clone)]
pub(crate) struct PageTable {
    nodes: Vec<Node>,
    /// Arena nodes that hold nothing and hang from nothing, ready for
    /// [`Self::alloc_node`] to hand out as they are.
    free: Vec<u32>,
    root: u32,
    mapped: u64,
    /// Live leaf nodes referenced from this table (shared ones count once;
    /// huge directories count like any other leaf node).
    leaf_count: u64,
    /// Live 2 MiB huge mappings (lone leaves plus directory members).
    huge: u64,
    /// The list [`Self::with_leaf_slots`] enumerates into, kept for its
    /// capacity; empty between calls.
    scratch: Vec<Slot>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PageTable {
    /// Keeps the arena as a spare of this thread's, emptied: whatever is
    /// still wired is let go of, node 0 is the root again and every other
    /// node free.
    fn drop(&mut self) {
        let (mut nodes, mut free) = (std::mem::take(&mut self.nodes), std::mem::take(&mut self.free));
        nodes.truncate(SPARE_ARENA_NODES);
        for node in &mut nodes {
            node.clear();
            node.held.shrink_to(SPARE_ARENA_NODES);
        }
        free.clear();
        free.shrink_to(SPARE_ARENA_NODES);
        free.extend(1..nodes.len() as u32);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.shrink_to(SPARE_ARENA_NODES);
        SPARES.with(|s| {
            let spares = &mut s.borrow_mut().arenas;
            if spares.len() < SPARE_ARENAS {
                spares.push((nodes, free, scratch));
            }
        });
    }
}

impl PageTable {
    /// Creates an empty page table (root node only).
    pub(crate) fn new() -> PageTable {
        // The arena of a table this thread dropped, if it kept one: its
        // nodes are empty and have the capacity they grew to. Else room
        // for the paths of a freshly exec'd process (text, heap and stack
        // hang from six intermediate nodes), so that mapping them does not
        // move the arena three times.
        let spare = SPARES.with(|s| s.borrow_mut().arenas.pop());
        let (nodes, free, scratch) = spare.unwrap_or_else(|| {
            let mut nodes = Vec::with_capacity(8);
            nodes.push(Node::new());
            (nodes, Vec::new(), Vec::new())
        });
        PageTable {
            nodes,
            free,
            root: 0,
            mapped: 0,
            leaf_count: 0,
            huge: 0,
            scratch,
        }
    }

    fn alloc_node(&mut self, cycles: &mut Cycles, cost: &CostModel) -> u32 {
        cycles.charge(cost.pt_node_alloc);
        // A node on the free list is empty, which is all a new one is.
        self.free.pop().unwrap_or_else(|| {
            self.nodes.push(Node::new());
            (self.nodes.len() - 1) as u32
        })
    }

    /// Retires the arena node `node`, which holds nothing and which nothing
    /// links to any more.
    fn free_node(&mut self, node: u32) {
        debug_assert_eq!(self.nodes[node as usize].live(), 0, "freeing a node that holds entries");
        self.free.push(node);
    }

    /// Walks downward allocating missing intermediates, to the level-`stop`
    /// node covering `vpn` (`stop == 1` for the ordinary leaf walk,
    /// `stop == 2` to attach a huge directory) — or to the huge directory
    /// met on the way to level 1, for the caller to write into or degroup.
    fn walk_alloc(&mut self, vpn: Vpn, stop: usize, cycles: &mut Cycles, cost: &CostModel) -> Walked {
        let mut node = self.root;
        for level in (stop + 1..PT_LEVELS).rev() {
            let idx = vpn.pt_index(level);
            node = match self.nodes[node as usize].get(idx) {
                Some(Entry::Table(t)) => *t,
                None => {
                    let t = self.alloc_node(cycles, cost);
                    self.nodes[node as usize].put(idx, Entry::Table(t));
                    t
                }
                Some(Entry::Leaf(_)) if level == 2 => return Walked::Dir(node, idx),
                Some(_) => unreachable!("leaf entry at level {level}"),
            };
        }
        Walked::Table(node)
    }

    /// [`Self::walk_alloc`] to level 1 where the caller has nothing to do
    /// with a directory but to have degrouped it.
    fn walk_alloc_l1(&mut self, vpn: Vpn, cycles: &mut Cycles, cost: &CostModel) -> u32 {
        match self.walk_alloc(vpn, 1, cycles, cost) {
            Walked::Table(node) => node,
            Walked::Dir(..) => panic!("walk through a huge directory (missed degroup)"),
        }
    }

    /// Coordinates of the leaf-bearing slot whose span covers `vpn` — a
    /// small-PTE node, a lone huge block or a huge directory — whether or
    /// not it maps `vpn` itself: [`Self::walk_recording`], the one
    /// read-only descent, with the path dropped. What the slot holds for
    /// `vpn` is then a matter of [`Self::pte_at`], [`Self::block_at`],
    /// [`Self::shared_at`] and [`Self::update_at`], none of which walks.
    #[inline]
    pub(crate) fn find(&self, vpn: Vpn) -> Option<Slot> {
        let (_, node, idx, dir) = self.walk_recording(vpn)?;
        let kind = match self.nodes[node as usize].get(idx)? {
            Entry::Leaf(_) if dir => SlotKind::Dir,
            Entry::Leaf(_) => SlotKind::Small,
            Entry::Huge(_) => SlotKind::Huge,
            Entry::Table(_) => unreachable!("table at leaf level"),
        };
        Some((kind.base_of(vpn), node, idx, kind))
    }

    /// The entry behind slot coordinates.
    #[inline]
    fn entry_at(&self, node: u32, idx: usize) -> &Entry {
        self.nodes[node as usize].get(idx).expect("stale slot coordinates")
    }

    #[inline]
    fn entry_at_mut(&mut self, node: u32, idx: usize) -> &mut Entry {
        self.nodes[node as usize].get_mut(idx).expect("stale slot coordinates")
    }

    /// Number of leaf translations currently installed. A huge mapping
    /// counts as the [`HUGE_PAGES`] small pages it covers.
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Number of live 2 MiB huge mappings.
    pub(crate) fn huge_mapped(&self) -> u64 {
        self.huge
    }

    /// Number of live page-table nodes, including the root and leaf nodes
    /// (a shared leaf node counts in every table referencing it, as it
    /// would occupy a slot in each table's parent node on hardware).
    pub(crate) fn node_count(&self) -> usize {
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

    /// Installs a small leaf translation for `vpn`, returning the
    /// coordinates of the slot it went into.
    ///
    /// Fails with [`MemError::Overlap`] if a translation is already present
    /// (including coverage by a huge block); callers must unmap first
    /// (matching hardware, where silently replacing a live PTE without a
    /// TLB flush is a bug). Panics if the covering leaf subtree is shared —
    /// callers must privatize first. Mapping a small page into a hole of a
    /// huge directory degroups the directory back to a level-1 table.
    ///
    /// `found` is what a caller's own [`Self::find`] returned for `vpn`, if
    /// it made one: where that found the small-PTE node the entry goes
    /// into, the descent is not made again. Otherwise the walk that
    /// allocates is the walk that finds.
    pub(crate) fn map_at(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        found: Option<Slot>,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<Slot> {
        if !vpn.is_user() {
            return Err(MemError::BadAddress);
        }
        // Injection point: a real kernel can fail to get a frame for an
        // intermediate node anywhere along the walk. Crossing before any
        // mutation keeps the table untouched on injected failure.
        fpr_faults::cross(FaultSite::PtNodeAlloc).map_err(|_| MemError::OutOfMemory)?;
        let slot = self.small_node_at(vpn, found, cycles, cost)?;
        let arc = self.leaf_at_mut(slot.1, slot.2);
        let idx0 = vpn.pt_index(0);
        if arc.get(idx0).is_some() {
            return Err(MemError::Overlap);
        }
        let leaf = Arc::get_mut(arc).expect("map into a shared leaf subtree (missed unshare)");
        leaf.set(idx0, Some(pte));
        self.mapped += 1;
        Ok(slot)
    }

    /// The small-PTE node covering `vpn`: at `found`, what a caller's own
    /// [`Self::find`] returned, if that is one, else [`Self::small_node_for`]
    /// — the walk that allocates is the walk that finds.
    pub(crate) fn small_node_at(&mut self, vpn: Vpn, found: Option<Slot>, cycles: &mut Cycles, cost: &CostModel) -> MemResult<Slot> {
        let slot = match found {
            Some(slot @ (.., SlotKind::Small)) => slot,
            _ => self.small_node_for(vpn, cycles, cost)?,
        };
        debug_assert!(covers(slot, vpn), "slot {slot:?} does not cover {vpn:?}");
        Ok(slot)
    }

    /// [`LeafNode::fill_run`] on the small-PTE node at `slot`, which must
    /// be this table's own, counting what it maps.
    pub(crate) fn fill_run(
        &mut self,
        (_, node, idx, _): Slot,
        range: Range<usize>,
        entry: impl FnMut(usize) -> MemResult<Pte>,
    ) -> (usize, u64, MemResult<()>) {
        let leaf = Arc::get_mut(self.leaf_at_mut(node, idx)).expect("map into a shared leaf subtree (missed unshare)");
        let filled = leaf.fill_run(range, entry);
        self.mapped += filled.1;
        filled
    }

    /// Walks to the small-PTE node covering `vpn`, allocating it and the
    /// path to it as needed, and degrouping a huge directory that has a
    /// hole there.
    fn small_node_for(&mut self, vpn: Vpn, cycles: &mut Cycles, cost: &CostModel) -> MemResult<Slot> {
        let node = match self.walk_alloc(vpn, 1, cycles, cost) {
            Walked::Table(node) => node,
            Walked::Dir(n2, i2) => {
                if self.leaf_at(n2, i2).get(vpn.pt_index(1)).is_some() {
                    return Err(MemError::Overlap);
                }
                // Small page into a directory hole: the GiB loses its
                // all-huge shape, so fall back to a level-1 table of lone
                // huge leaves.
                self.degroup(n2, i2, cycles, cost)
            }
        };
        let idx1 = vpn.pt_index(1);
        let n = &mut self.nodes[node as usize];
        match n.get(idx1) {
            Some(Entry::Huge(_)) => return Err(MemError::Overlap),
            Some(_) => {}
            None => {
                cycles.charge(cost.pt_node_alloc);
                n.put(idx1, Entry::Leaf(LeafNode::new()));
                self.leaf_count += 1;
            }
        }
        Ok((vpn.huge_base().0, node, idx1, SlotKind::Small))
    }

    /// Installs a 2 MiB huge leaf at block-aligned `vpn`, whose `pfn` heads
    /// a naturally aligned 512-frame run. Fails with [`MemError::Overlap`]
    /// if anything is mapped in the block's level-1 slot. When the target
    /// falls in a hole of an exclusive huge directory the PTE is written
    /// straight into the directory; collapsing is attempted otherwise.
    ///
    /// Charges `charge` for the entry: [`CostModel::huge_map`] to
    /// *construct* a block mapping (populate path), [`CostModel::pte_copy`]
    /// to duplicate one that exists (fork, slide).
    pub(crate) fn map_huge(
        &mut self,
        vpn: Vpn,
        pte: Pte,
        charge: u64,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        if !vpn.is_user() {
            return Err(MemError::BadAddress);
        }
        assert!(vpn.is_huge_aligned(), "map_huge of an unaligned block");
        debug_assert_eq!(pte.pfn.0 % HUGE_PAGES, 0, "huge pfn must head an aligned run");
        let pte = Pte::new(pte.pfn, pte.flags | PteFlags::HUGE);
        fpr_faults::cross(FaultSite::PtNodeAlloc).map_err(|_| MemError::OutOfMemory)?;
        let node = match self.walk_alloc(vpn, 1, cycles, cost) {
            Walked::Table(node) => node,
            Walked::Dir(n2, i2) => {
                let j = vpn.pt_index(1);
                let arc = self.leaf_at_mut(n2, i2);
                if arc.get(j).is_some() {
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
        };
        let idx1 = vpn.pt_index(1);
        let n = &mut self.nodes[node as usize];
        if n.get(idx1).is_some() {
            return Err(MemError::Overlap);
        }
        n.put(idx1, Entry::Huge(pte));
        self.mapped += HUGE_PAGES;
        self.huge += 1;
        cycles.charge(charge);
        self.try_collapse(vpn, node);
        Ok(())
    }

    /// Trades the level-1 node `l1`, which holds nothing but huge PTEs, for
    /// a huge directory of them in the slot `(n2, i2)` that linked it.
    /// `mapped`, `huge` and `n2`'s live count are unchanged.
    fn swap_in_directory(&mut self, n2: u32, i2: usize, l1: u32) {
        let mut dir = LeafNode::new();
        let members = Arc::get_mut(&mut dir).expect("a new node has one holder");
        let n = &mut self.nodes[l1 as usize];
        for (j, p) in n.all_huge().expect("a directory's members are huge") {
            members.set(j, Some(p));
        }
        n.clear();
        let linked = std::mem::replace(self.entry_at_mut(n2, i2), Entry::Leaf(dir));
        debug_assert!(matches!(linked, Entry::Table(t) if t == l1));
        self.free_node(l1);
        self.leaf_count += 1;
    }

    /// If the level-1 node covering `vpn` has become all-huge, collapses it
    /// into a huge directory at the parent level-2 slot. Free — it rides
    /// behind the promote/map that filled the last slot, trades one arena
    /// node for one leaf node, and is what lets fork share a whole GiB of
    /// huge mappings with a single pointer copy.
    fn try_collapse(&mut self, vpn: Vpn, l1: u32) {
        let n = &self.nodes[l1 as usize];
        if n.live() != PT_ENTRIES || n.all_huge().is_none() {
            return;
        }
        // The level-2 slot that links `l1`; looked up only when a node
        // fills, which is once in 512 huge maps at most.
        let (path, ..) = self.walk_recording(vpn).expect("collapse under a broken path");
        let (n2, i2) = path[2];
        self.swap_in_directory(n2, i2, l1);
    }

    /// Groups every level-1 table whose present entries are all huge (two
    /// or more of them) into a — possibly partial — huge directory, the
    /// form an on-demand fork shares with a single pointer copy. Partial
    /// directories are an ordinary table state (member unmap produces
    /// them too); holes fill via `map_huge` and degroup on a small map.
    /// Free, like [`Self::try_collapse`]: a node swap, not a PTE walk.
    pub(crate) fn group_huge_tables(&mut self) {
        let tables_of = |n: &Node| -> Vec<(usize, u32)> {
            let table = |(i, e): (usize, &Entry)| match e {
                Entry::Table(t) => Some((i, *t)),
                _ => None,
            };
            n.entries().filter_map(table).collect()
        };
        for (_, n2) in tables_of(&self.nodes[self.root as usize]) {
            for (i2, l1) in tables_of(&self.nodes[n2 as usize]) {
                let n = &self.nodes[l1 as usize];
                if n.live() >= 2 && n.all_huge().is_some() {
                    self.swap_in_directory(n2, i2, l1);
                }
            }
        }
    }

    /// Splits an exclusive huge directory at `(n2, i2)` back into a level-1
    /// table of lone huge leaves, returning the new node's arena index.
    /// Charges one node allocation; the huge PTEs themselves survive, so
    /// this is not a demotion and crosses no fault site of its own.
    fn degroup(&mut self, n2: u32, i2: usize, cycles: &mut Cycles, cost: &CostModel) -> u32 {
        let l1 = self.alloc_node(cycles, cost);
        // `n2`'s live count is unchanged: Leaf replaced by Table.
        let Entry::Leaf(arc) = std::mem::replace(self.entry_at_mut(n2, i2), Entry::Table(l1))
        else {
            unreachable!("degroup of a non-directory slot");
        };
        assert_eq!(Arc::strong_count(&arc), 1, "degrouping a shared huge directory (missed unshare)");
        let n = &mut self.nodes[l1 as usize];
        for (j, p) in arc.iter() {
            n.put(j, Entry::Huge(p));
        }
        LeafNode::retire(arc);
        self.leaf_count -= 1;
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
        let (_, node, idx, SlotKind::Small) = self.find(base)? else {
            return None;
        };
        let arc = self.leaf_at(node, idx);
        if Arc::strong_count(arc) > 1 || arc.live() != PT_ENTRIES as u64 {
            return None;
        }
        let first = arc.get(0)?;
        if !first.is_present() || first.pfn.0 % HUGE_PAGES != 0 {
            return None;
        }
        let continues = |(j, p): (usize, Pte)| {
            p.is_present() && p.flags == first.flags && p.pfn.0 == first.pfn.0 + j as u64
        };
        arc.iter().all(continues).then(|| Pte::new(first.pfn, first.flags | PteFlags::HUGE))
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
        let Some((_, node, idx1, SlotKind::Small)) = self.find(base) else {
            return Err(MemError::NotMapped);
        };
        let entry = self.entry_at_mut(node, idx1);
        if let Entry::Leaf(arc) = std::mem::replace(entry, Entry::Huge(pte)) {
            debug_assert_eq!(Arc::strong_count(&arc), 1, "promoting a shared leaf (missed unshare)");
            debug_assert_eq!(arc.live(), PT_ENTRIES as u64);
            LeafNode::retire(arc);
        }
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
        let idx1 = base.pt_index(1);
        let l1 = match self.find(base) {
            Some((_, n2, i2, SlotKind::Dir)) => self.degroup(n2, i2, cycles, cost),
            Some((_, node, _, SlotKind::Huge)) => node,
            _ => return Err(MemError::NotMapped),
        };
        let Some(&Entry::Huge(hpte)) = self.nodes[l1 as usize].get(idx1) else {
            return Err(MemError::NotMapped);
        };
        let mut leaf = LeafNode::new();
        let pages = Arc::get_mut(&mut leaf).expect("a new node has one holder");
        let flags = hpte.flags.minus(PteFlags::HUGE);
        for j in 0..PT_ENTRIES {
            let pfn = Pfn(hpte.pfn.0 + j as u64);
            pages.set(j, Some(Pte { pfn, flags }));
        }
        *self.entry_at_mut(l1, idx1) = Entry::Leaf(leaf);
        self.leaf_count += 1;
        self.huge -= 1;
        cycles.charge(cost.pt_demote);
        Ok(())
    }

    /// The one read-only descent: walks to the leaf-bearing slot covering
    /// `vpn`, recording the link followed at each level so that empty
    /// ancestors can be reclaimed ([`Self::unlink`])
    /// or the parent of a level-1 node found ([`Self::try_collapse`]):
    /// `(path, node, slot, whether the slot is a huge directory's)`. The
    /// slot of a level-1 node may turn out to be empty; a path that breaks
    /// off higher up is `None`. Inlined, so that [`Self::find`], which
    /// drops the path, does not pay for recording it.
    #[inline]
    fn walk_recording(&self, vpn: Vpn) -> Option<(Path, u32, usize, bool)> {
        let mut path: Path = [(0, 0); PT_LEVELS];
        let mut node = self.root;
        for level in (2..PT_LEVELS).rev() {
            let idx = vpn.pt_index(level);
            path[level] = (node, idx);
            match self.nodes[node as usize].get(idx)? {
                Entry::Table(t) => node = *t,
                Entry::Leaf(_) if level == 2 => return Some((path, node, idx, true)),
                _ => return None,
            }
        }
        Some((path, node, vpn.pt_index(1), false))
    }

    /// Reclaims empty intermediate nodes bottom-up starting from `child`
    /// (never the root), following the parent links recorded in `path`
    /// from level `from` upward.
    fn reclaim_path(&mut self, path: &Path, mut child: u32, from: usize) {
        for &(parent, idx) in &path[from..] {
            if self.nodes[child as usize].live() != 0 {
                break;
            }
            self.free_node(child);
            self.nodes[parent as usize].take(idx);
            child = parent;
        }
    }

    /// Looks up the translation for `vpn`. Inside a huge block the
    /// returned PTE is the per-page view (frame `head + offset`, `HUGE`
    /// flag set) so callers can both use the translation and recognise the
    /// block mapping behind it.
    pub(crate) fn translate(&self, vpn: Vpn) -> Option<Pte> {
        self.pte_at(self.find(vpn)?, vpn)
    }

    /// [`Self::translate`] without the descent: what the slot at
    /// coordinates from [`Self::find`] holds for `vpn`.
    #[inline]
    pub(crate) fn pte_at(&self, slot @ (_, node, idx, kind): Slot, vpn: Vpn) -> Option<Pte> {
        debug_assert!(covers(slot, vpn), "pte_at: slot {slot:?} does not cover {vpn:?}");
        match self.entry_at(node, idx) {
            Entry::Leaf(leaf) if kind == SlotKind::Small => leaf.get(vpn.pt_index(0)),
            Entry::Leaf(dir) => dir.get(vpn.pt_index(1)).map(|h| Self::synth(h, vpn)),
            Entry::Huge(h) => Some(Self::synth(*h, vpn)),
            Entry::Table(_) => panic!("pte_at: stale coordinates"),
        }
    }

    /// The covering 2 MiB block PTE (frame = head of the run) if `vpn`
    /// falls inside a huge mapping.
    pub(crate) fn huge_block(&self, vpn: Vpn) -> Option<Pte> {
        self.block_at(self.find(vpn)?, vpn)
    }

    /// [`Self::huge_block`] without the descent.
    pub(crate) fn block_at(&self, slot @ (_, node, idx, kind): Slot, vpn: Vpn) -> Option<Pte> {
        debug_assert!(covers(slot, vpn), "block_at: slot {slot:?} does not cover {vpn:?}");
        match self.entry_at(node, idx) {
            Entry::Leaf(dir) if kind == SlotKind::Dir => dir.get(vpn.pt_index(1)),
            Entry::Huge(h) => Some(*h),
            _ => None,
        }
    }

    /// True if the leaf subtree at the slot is shared with another page
    /// table (on-demand fork has not yet unshared it). A lone huge leaf is
    /// never shared — fork shares its frames, not the entry.
    #[inline]
    pub(crate) fn shared_at(&self, (_, node, idx, _): Slot) -> bool {
        matches!(self.entry_at(node, idx), Entry::Leaf(arc) if Arc::strong_count(arc) > 1)
    }

    /// Replaces an existing translation in place (COW break, protection
    /// change). A huge block updates as a unit: the new PTE must be huge
    /// and `vpn` block-aligned, else the caller missed a demote. Fails if
    /// `vpn` is not mapped. Panics if the covering leaf subtree or
    /// directory is shared — callers must privatize first.
    pub(crate) fn update(&mut self, vpn: Vpn, pte: Pte) -> MemResult<Pte> {
        let slot = self.find(vpn).ok_or(MemError::NotMapped)?;
        self.update_at(slot, vpn, pte)
    }

    /// [`Self::update`] without the descent.
    #[inline]
    pub(crate) fn update_at(&mut self, slot @ (_, node, idx, kind): Slot, vpn: Vpn, pte: Pte) -> MemResult<Pte> {
        debug_assert!(covers(slot, vpn), "update_at: slot {slot:?} does not cover {vpn:?}");
        let whole_block = || {
            assert!(
                vpn.is_huge_aligned() && pte.is_huge(),
                "partial update of a huge block (missed demote)"
            );
        };
        match self.entry_at_mut(node, idx) {
            Entry::Huge(h) => {
                whole_block();
                Ok(std::mem::replace(h, pte))
            }
            Entry::Leaf(arc) => {
                let dir = kind == SlotKind::Dir;
                let j = vpn.pt_index(dir as usize);
                if arc.get(j).is_none() {
                    return Err(MemError::NotMapped);
                }
                if dir {
                    whole_block();
                }
                let leaf = Arc::get_mut(arc).expect(if dir {
                    "update inside a shared directory (missed unshare)"
                } else {
                    "update inside a shared leaf subtree (missed unshare)"
                });
                Ok(leaf.set(j, Some(pte)).expect("presence checked above"))
            }
            Entry::Table(_) => panic!("update_at: stale coordinates"),
        }
    }

    /// Coordinates of every leaf-bearing slot whose span intersects the VPN
    /// range `[lo, hi)`: `(base VPN, arena node, slot index, kind)`,
    /// ascending by base — an in-order descent that enters only subtrees
    /// the range touches and visits only slots that hold something. Every
    /// leaf enumeration below is built on this one walk. Coordinates (not
    /// `Arc` clones) so that enumerating does not perturb
    /// `Arc::strong_count` — the on-demand fork walk relies on the count to
    /// detect exclusivity.
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
        for (i, e) in self.nodes[node as usize].entries_in(first, last) {
            let slot_base = base | ((i as u64) << shift);
            match e {
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

    /// What the slot at coordinates from [`Self::leaf_slots_in`] holds, to
    /// be read a node at a time.
    pub(crate) fn leaf_slot(&self, (base, node, idx, kind): Slot) -> LeafSlot<'_> {
        LeafSlot { base, kind, entry: self.entry_at(node, idx) }
    }

    /// [`Self::leaf_slots_in`] for the walks a request makes — fork,
    /// teardown, the release scan of `munmap` — which hands `visit` the
    /// coordinates in a list the table keeps, and the table to work on by
    /// them: nothing is allocated once the list has grown to the table's
    /// size. The coordinates are as good as `visit` keeps them.
    pub(crate) fn with_leaf_slots<R>(
        &mut self,
        lo: u64,
        hi: u64,
        visit: impl FnOnce(&mut PageTable, &[Slot]) -> R,
    ) -> R {
        let mut slots = std::mem::take(&mut self.scratch);
        self.collect_slots(self.root, PT_LEVELS - 1, 0, lo, hi, &mut slots);
        let out = visit(self, &slots);
        slots.clear();
        self.scratch = slots;
        out
    }

    /// Present entries of the slot at coordinates from
    /// [`Self::leaf_slots_in`], ascending: `(in-node index, VPN, PTE)`. A
    /// huge block — lone, or a directory member — appears once at its
    /// block base with the `HUGE` flag set.
    pub(crate) fn slot_entries(
        &self,
        (base, node, idx, kind): Slot,
    ) -> impl Iterator<Item = (usize, Vpn, Pte)> + '_ {
        let (lone, members) = match self.entry_at(node, idx) {
            Entry::Leaf(arc) => (None, Some(arc.iter())),
            Entry::Huge(p) => (Some(*p), None),
            Entry::Table(_) => panic!("slot_entries: stale coordinates"),
        };
        let members = members.into_iter().flatten().map(move |(j, p)| (j, Vpn(base + j as u64 * kind.stride()), p));
        lone.into_iter().map(move |p| (0, Vpn(base), p)).chain(members)
    }

    /// Visits every leaf translation in ascending VPN order — a huge block
    /// once at its block base, with the `HUGE` flag set — along with the
    /// identity of the leaf node holding it (stable address of the shared
    /// node), so callers can recognise when two tables reference the
    /// *same* physical subtree.
    /// Lone huge leaves use the address of their entry in the arena node —
    /// a distinct allocation from every `Arc`, so identities never collide.
    pub(crate) fn for_each_leaf_keyed(&self, mut f: impl FnMut(usize, Vpn, Pte)) {
        for slot in self.leaf_slot_coords() {
            let id = match self.entry_at(slot.1, slot.2) {
                Entry::Leaf(arc) => Arc::as_ptr(arc) as usize,
                lone => lone as *const Entry as usize,
            };
            self.slot_entries(slot).for_each(|(_, vpn, pte)| f(id, vpn, pte));
        }
    }

    /// What the slot holds at a run of positions: how many of its entries
    /// there hold a frame, and whether one of them is writable.
    pub(crate) fn run_at(&self, (_, node, idx, _): Slot, run: Range<usize>) -> (u64, bool) {
        match self.entry_at(node, idx) {
            Entry::Huge(p) if run.contains(&0) => (1, p.is_writable()),
            Entry::Huge(_) => (0, false),
            Entry::Leaf(leaf) => (leaf.present_in(run.clone()), leaf.writable_in(run)),
            Entry::Table(_) => panic!("run_at: stale coordinates"),
        }
    }

    /// [`LeafNode::write_protect_run`] on the slot, a lone block included.
    /// A fork's marking (`cow`) only ever meets writable entries that are
    /// not `MAP_SHARED`, so a node whose map says it holds none is not
    /// read; and a node another table holds has none to write-protect.
    pub(crate) fn write_protect_at(&mut self, (_, node, idx, _): Slot, run: Range<usize>, cow: bool, mut undo: impl FnMut(usize, Pte)) {
        match self.entry_at_mut(node, idx) {
            Entry::Huge(p) if run.contains(&0) && p.is_writable() => {
                undo(0, *p);
                p.flags = p.flags.minus(PteFlags::WRITABLE).union(if cow { PteFlags::COW } else { PteFlags(0) });
            }
            Entry::Huge(_) => {}
            Entry::Leaf(arc) if cow && arc.private.is_empty() => {}
            Entry::Leaf(arc) => match Arc::get_mut(arc) {
                Some(leaf) => leaf.write_protect_run(run, cow, undo),
                None => debug_assert!(!arc.writable_in(run), "write-protecting a shared leaf subtree (missed unshare)"),
            },
            Entry::Table(_) => panic!("write_protect_at: stale coordinates"),
        }
    }

    /// Removes every entry that begins at a page of `[lo, hi)` — a huge
    /// block only whole, which the caller has seen to — a slot's run at a
    /// time, ascending ([`Self::unmap_run`]).
    pub(crate) fn unmap_range(&mut self, lo: u64, hi: u64, mut gone: impl FnMut(Unmapped)) {
        self.with_leaf_slots(lo, hi, |pt, slots| slots.iter().for_each(|&slot| pt.unmap_run(slot, (lo, hi), &mut gone)));
    }

    /// Removes the entries of the slot at coordinates from a walk that
    /// begin at a page of `[lo, hi)`: `gone` is shown what the slot loses
    /// just before it does. A leaf node, and then the intermediate nodes
    /// above it, that this leaves empty are let go of. Panics if the node is
    /// shared — callers must privatize first.
    pub(crate) fn unmap_run(&mut self, (base, node, idx, kind): Slot, (lo, hi): (u64, u64), gone: &mut impl FnMut(Unmapped)) {
        let run = kind.positions(base, lo, hi);
        let PageTable { nodes, mapped, huge, .. } = self;
        let emptied = match nodes[node as usize].get_mut(idx).expect("stale slot coordinates") {
            Entry::Huge(_) if !run.contains(&0) => return,
            Entry::Huge(p) => {
                debug_assert!(base + HUGE_PAGES <= hi, "unmap of part of a huge block (missed demote)");
                gone(Unmapped::Block(*p));
                true
            }
            Entry::Leaf(arc) if !arc.holds_in(run.clone()) => return,
            Entry::Leaf(arc) => {
                let dir = kind == SlotKind::Dir;
                gone(Unmapped::Run(arc, run.clone(), dir));
                let leaf = Arc::get_mut(arc).expect("unmap inside a shared leaf subtree (missed unshare)");
                let n = leaf.clear_run(run);
                *mapped -= n * kind.stride();
                *huge -= if dir { n } else { 0 };
                leaf.live() == 0
            }
            Entry::Table(_) => unreachable!("coordinates name leaf-bearing slots"),
        };
        if let Some(Entry::Leaf(leaf)) = emptied.then(|| self.unlink(Vpn(base))).flatten() {
            LeafNode::retire(leaf);
        }
    }

    /// Maps the first `n` entries that the small-PTE node at `src` holds at
    /// positions `part` again at `to` on, with an index shift: into the
    /// small-PTE node at `found`, what a [`Self::find`] of `to` said, or one
    /// made, with its path, as [`Self::map_at`] makes it. The part lands in
    /// one node.
    pub(crate) fn map_moved(
        &mut self,
        (_, node, idx, _): Slot,
        part: Range<usize>,
        n: u64,
        (to, found): (Vpn, Option<Slot>),
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<()> {
        if n == 0 {
            return Ok(());
        }
        let dest = self.small_node_at(to, found, cycles, cost)?;
        // The source, where it is another node than the destination (a node
        // holds the pages it moves and those it moves to apart).
        let src = ((dest.1, dest.2) != (node, idx)).then(|| Arc::clone(self.leaf_at(node, idx)));
        let held = src.as_deref().unwrap_or(self.leaf_at(node, idx)).occupied.within(part.start, part.end);
        let leaf = Arc::get_mut(self.leaf_at_mut(dest.1, dest.2)).expect("map into a shared leaf subtree (missed unshare)");
        for j in held.slots().take(n as usize) {
            let (at, word) = (to.pt_index(0) + j - part.start, src.as_ref().map_or(leaf.words[j], |src| src.words[j]));
            debug_assert!(leaf.words[at] == 0, "entry mapped twice");
            leaf.set(at, Some(LeafNode::unpack(word)));
        }
        self.mapped += n;
        Ok(())
    }

    /// The leaf node at arena coordinates from [`Self::leaf_slot_coords`]
    /// (small leaves and huge directories both).
    pub(crate) fn leaf_at(&self, node: u32, idx: usize) -> &Arc<LeafNode> {
        match self.entry_at(node, idx) {
            Entry::Leaf(arc) => arc,
            _ => panic!("leaf_at: stale coordinates"),
        }
    }

    /// Mutable access to the leaf node at arena coordinates. The returned
    /// `Arc` can be inspected/marked via `Arc::get_mut` when exclusive.
    pub(crate) fn leaf_at_mut(&mut self, node: u32, idx: usize) -> &mut Arc<LeafNode> {
        match self.entry_at_mut(node, idx) {
            Entry::Leaf(arc) => arc,
            _ => panic!("leaf_at_mut: stale coordinates"),
        }
    }

    /// Wires the small-PTE node `leaf`, built off to the side with
    /// [`LeafNode::copy_run`] or [`LeafNode::set`], into the empty level-1
    /// slot at `base`: the one descent, and the node charges, that mapping
    /// its first entry through [`Self::map_at`] would have made. Infallible —
    /// every entry crossed its fault site when it was written.
    pub(crate) fn install_leaf(
        &mut self,
        base: u64,
        leaf: Arc<LeafNode>,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) {
        let vpn = Vpn(base);
        let node = self.walk_alloc_l1(vpn, cycles, cost);
        cycles.charge(cost.pt_node_alloc);
        self.wire_leaf(node, vpn.pt_index(1), leaf, false);
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
        self.nodes[node as usize].put(idx, Entry::Leaf(arc));
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
        let (node, idx) = if dir {
            let Walked::Table(node) = self.walk_alloc(vpn, 2, cycles, cost) else {
                unreachable!("a walk to level 2 reads no level-2 entry");
            };
            (node, vpn.pt_index(2))
        } else {
            (self.walk_alloc_l1(vpn, cycles, cost), vpn.pt_index(1))
        };
        if self.nodes[node as usize].get(idx).is_some() {
            return Err(MemError::Overlap);
        }
        cycles.charge(cost.pt_subtree_share);
        self.wire_leaf(node, idx, arc, dir);
        Ok(())
    }

    /// Replaces the (shared) leaf node or huge directory at coordinates
    /// from [`Self::find`] with a private deep copy — the deferred
    /// per-subtree copy of an on-demand fork. Charges one node allocation
    /// plus one PTE copy per present entry, and returns the copy so the
    /// caller can take a frame reference for each of its entries (huge
    /// PTEs, flagged `HUGE`, stand for whole runs). Crosses
    /// [`FaultSite::PtUnshare`] before mutating anything. The coordinates
    /// stay good: the copy takes the original's slot.
    pub(crate) fn privatize_at(
        &mut self,
        (_, node, idx, _): Slot,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) -> MemResult<&LeafNode> {
        fpr_faults::cross(FaultSite::PtUnshare).map_err(|_| MemError::OutOfMemory)?;
        let Entry::Leaf(arc) = self.entry_at_mut(node, idx) else {
            return Err(MemError::NotMapped);
        };
        cycles.charge(cost.pt_node_alloc);
        cycles.charge_n(cost.pte_copy, arc.live());
        let shared = std::mem::replace(arc, arc.private_copy());
        LeafNode::retire(shared);
        Ok(arc)
    }

    /// Unwires the leaf node (or huge directory) at `base` from this table
    /// without touching its contents, tearing down intermediates that
    /// become empty. The caller decides what to do with the returned `Arc`
    /// (drop it cheaply if still shared, release its frames if this was
    /// the last owner). Lone huge leaves are not `Arc`s — unmap those.
    pub(crate) fn detach_leaf(&mut self, base: u64) -> MemResult<Arc<LeafNode>> {
        match self.unlink(Vpn(base)) {
            Some(Entry::Leaf(arc)) => Ok(arc),
            _ => Err(MemError::NotMapped),
        }
    }

    /// Takes what the leaf-bearing slot covering `vpn` holds out of the
    /// table, with the pages it maps, and lets go of the intermediate nodes
    /// this leaves empty.
    fn unlink(&mut self, vpn: Vpn) -> Option<Entry> {
        let (path, node, idx, dir) = self.walk_recording(vpn)?;
        self.nodes[node as usize].get(idx)?;
        let taken = self.nodes[node as usize].take(idx);
        let (pages, blocks) = match &taken {
            Entry::Huge(_) => (HUGE_PAGES, 1),
            Entry::Leaf(arc) if dir => (arc.live() * HUGE_PAGES, arc.live()),
            Entry::Leaf(arc) => (arc.live(), 0),
            Entry::Table(_) => unreachable!("a walk ends at a leaf-bearing slot"),
        };
        self.leaf_count -= matches!(taken, Entry::Leaf(_)) as u64;
        (self.mapped, self.huge) = (self.mapped - pages, self.huge - blocks);
        self.reclaim_path(&path, node, if dir { 3 } else { 2 });
        Some(taken)
    }

    /// Drains every leaf and leaves the table empty: O(nodes) address-space
    /// destruction. A node this table holds alone is shown to `gone` whole
    /// before it goes to the spares, and so is a lone block; a node another
    /// table still holds is let go of unseen — the other holder keeps what
    /// it references. The arena is kept: every node but the root goes on
    /// the free list, for whatever the table maps next — or, if it drops
    /// first, for the next table of this thread.
    pub(crate) fn take_leaves(&mut self, mut gone: impl FnMut(Unmapped)) {
        self.with_leaf_slots(0, u64::MAX, |pt, slots| {
            for &(_, node, idx, kind) in slots {
                match pt.nodes[node as usize].take(idx) {
                    Entry::Huge(p) => gone(Unmapped::Block(p)),
                    Entry::Leaf(leaf) => {
                        if Arc::strong_count(&leaf) == 1 {
                            gone(Unmapped::Run(&leaf, 0..PT_ENTRIES, kind == SlotKind::Dir));
                        }
                        LeafNode::retire(leaf);
                    }
                    Entry::Table(_) => unreachable!("coordinates name leaf-bearing slots"),
                }
            }
        });
        // What is left is links between intermediate nodes.
        self.nodes.iter_mut().for_each(Node::clear);
        self.free.clear();
        self.free.extend((0..self.nodes.len() as u32).filter(|&n| n != self.root));
        (self.mapped, self.leaf_count, self.huge) = (0, 0, 0);
    }

    /// Recounts every summary the table keeps beside its entries and
    /// reports the first that disagrees: each intermediate node's occupancy
    /// map and index against the entries it holds; that a free-listed node
    /// holds nothing and every other but the root hangs from exactly one
    /// link; each leaf node's maps and its entry and swap counts against its
    /// words, and that a shared one holds no private writable entry; and
    /// the table's mapped pages, huge mappings and leaf nodes. Lookups,
    /// walks, fork and teardown trust these instead of reading the slots.
    pub(crate) fn check_summaries(&self) -> Result<(), String> {
        let mut free = vec![false; self.nodes.len()];
        for &n in &self.free {
            if std::mem::replace(&mut free[n as usize], true) || n == self.root {
                return Err(format!("node {n} is on the free list twice, or is the root"));
            }
        }
        let mut links = 0;
        for (n, node) in self.nodes.iter().enumerate() {
            node.check().map_err(|e| format!("node {n}: {e}"))?;
            if free[n] && node.live() != 0 {
                return Err(format!("free-listed node {n} holds {} entries", node.live()));
            }
            if !free[n] && n as u32 != self.root && node.live() == 0 {
                return Err(format!("node {n} is empty but not on the free list"));
            }
            links += node.held.iter().filter(|h| matches!(h.entry, Entry::Table(_))).count();
        }
        if links + 1 + self.free.len() != self.nodes.len() {
            let (nodes, freed) = (self.nodes.len(), self.free.len());
            return Err(format!("{links} links into {nodes} nodes, {freed} of them free"));
        }
        let (mut mapped, mut huge, mut leaf_count) = (0, 0, 0);
        for (base, node, idx, kind) in self.leaf_slot_coords() {
            if kind == SlotKind::Huge {
                (mapped, huge) = (mapped + HUGE_PAGES, huge + 1);
                continue;
            }
            leaf_count += 1;
            let leaf = self.leaf_at(node, idx);
            leaf.check().map_err(|e| format!("leaf at {base:#x}: {e}"))?;
            // Its entry count, recounted just now.
            match kind {
                SlotKind::Small => mapped += leaf.live(),
                _ => (mapped, huge) = (mapped + leaf.live() * HUGE_PAGES, huge + leaf.live()),
            }
            if leaf.live() == 0 {
                return Err(format!("leaf at {base:#x} is linked but empty"));
            }
            if Arc::strong_count(leaf) > 1 && !leaf.private.is_empty() {
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

    impl PageTable {
        /// [`PageTable::map_at`] without a lookup of the caller's.
        fn map(&mut self, vpn: Vpn, pte: Pte, cycles: &mut Cycles, cost: &CostModel) -> MemResult<()> {
            self.map_at(vpn, pte, None, cycles, cost).map(|_| ())
        }

        /// [`PageTable::map_huge`] of a block built from scratch.
        fn map_huge_built(&mut self, vpn: Vpn, pte: Pte, cycles: &mut Cycles, cost: &CostModel) -> MemResult<()> {
            self.map_huge(vpn, pte, cost.huge_map, cycles, cost)
        }
    }

    fn huge(pfn: u64) -> Pte {
        Pte::new(Pfn(pfn), PteFlags::WRITABLE | PteFlags::HUGE)
    }

    /// A new node, to write: this test holds it alone.
    fn own(leaf: &mut Arc<LeafNode>) -> &mut LeafNode {
        Arc::get_mut(leaf).expect("held once")
    }

    /// What [`PageTable::take_leaves`] shows of what it drains, in the order
    /// it does: each node's entries, and whether it is a directory; a lone
    /// block as its one entry.
    fn taken(pt: &mut PageTable) -> Vec<(Vec<Pte>, bool)> {
        let mut out = Vec::new();
        pt.take_leaves(|gone| {
            out.push(match gone {
                Unmapped::Block(pte) => (vec![pte], false),
                Unmapped::Run(leaf, _, dir) => (leaf.iter().map(|(_, pte)| pte).collect(), dir),
            })
        });
        out
    }

    /// Unmaps the entry that begins at `vpn` — a block whole — and returns
    /// it.
    fn unmap(pt: &mut PageTable, vpn: Vpn) -> MemResult<Pte> {
        let hi = match pt.find(vpn).ok_or(MemError::NotMapped)?.3 {
            SlotKind::Small => vpn.0 + 1,
            SlotKind::Dir | SlotKind::Huge => vpn.0 + HUGE_PAGES,
        };
        let mut got = Err(MemError::NotMapped);
        pt.unmap_range(vpn.0, hi, |gone| {
            got = Ok(match gone {
                Unmapped::Block(pte) => pte,
                Unmapped::Run(leaf, run, _) => leaf.get(run.start).expect("an entry begins at the page"),
            })
        });
        got
    }

    /// The pages, by where their entries begin, that `unmap_range(lo, hi)`
    /// takes out of the table `build` makes.
    fn unmapped_by(build: &dyn Fn() -> PageTable, lo: u64, hi: u64) -> Vec<u64> {
        let leaves = |pt: &PageTable| {
            let mut vpns = Vec::new();
            pt.for_each_leaf_keyed(|_, vpn, _| vpns.push(vpn.0));
            vpns
        };
        let mut pt = build();
        let before = leaves(&pt);
        pt.unmap_range(lo, hi, |_| {});
        pt.check_summaries().unwrap();
        let after = leaves(&pt);
        before.into_iter().filter(|vpn| !after.contains(vpn)).collect()
    }

    fn leaf_shared(pt: &PageTable, vpn: Vpn) -> bool {
        pt.find(vpn).is_some_and(|slot| pt.shared_at(slot))
    }

    #[test]
    fn group_huge_tables_forms_partial_directories() {
        let (mut pt, mut cy, cost) = fixture();
        // Three loose blocks in one GiB region, one lone block far away.
        for b in 0..3u64 {
            pt.map_huge_built(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        let far = Vpn(512 * 512 * 3);
        pt.map_huge_built(far, huge(1 << 30), &mut cy, &cost).unwrap();
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
        let old = unmap(&mut pt, vpn).unwrap();
        assert_eq!(old.pfn, Pfn(7));
        assert_eq!(pt.translate(vpn), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn double_map_is_overlap() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map(Vpn(1), Pte::new(Pfn(1), PteFlags::default()), &mut cy, &cost)
            .unwrap();
        assert_eq!(
            pt.map(Vpn(1), Pte::new(Pfn(2), PteFlags::default()), &mut cy, &cost),
            Err(MemError::Overlap)
        );
    }

    #[test]
    fn unmap_missing_is_not_mapped() {
        let (mut pt, _, _) = fixture();
        assert_eq!(unmap(&mut pt, Vpn(99)), Err(MemError::NotMapped));
    }

    #[test]
    fn kernel_half_rejected() {
        let (mut pt, mut cy, cost) = fixture();
        let kvpn = Vpn(1 << 36); // above the 47-bit user split (VPN space)
        assert_eq!(
            pt.map(kvpn, Pte::new(Pfn(0), PteFlags::default()), &mut cy, &cost),
            Err(MemError::BadAddress)
        );
    }

    #[test]
    fn intermediate_nodes_reclaimed() {
        let (mut pt, mut cy, cost) = fixture();
        assert_eq!(pt.node_count(), 1);
        pt.map(
            Vpn(0x40000),
            Pte::new(Pfn(1), PteFlags::default()),
            &mut cy,
            &cost,
        )
        .unwrap();
        assert_eq!(pt.node_count(), 4, "three intermediates + root");
        unmap(&mut pt, Vpn(0x40000)).unwrap();
        assert_eq!(pt.node_count(), 1, "empty intermediates torn down");
        // Arena slots are recycled on the next map.
        pt.map(
            Vpn(0x80000),
            Pte::new(Pfn(2), PteFlags::default()),
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
            pt.map(Vpn(i), Pte::new(Pfn(i), PteFlags::default()), &mut cy, &cost)
                .unwrap();
        }
        // 512 leaves fit in one leaf node: root + 2 intermediates + 1 leaf node.
        assert_eq!(pt.node_count(), 4);
        assert_eq!(pt.mapped_pages(), 512);
        pt.map(
            Vpn(512),
            Pte::new(Pfn(600), PteFlags::default()),
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
            .update(Vpn(3), Pte::new(Pfn(2), PteFlags::default()))
            .unwrap();
        assert_eq!(old.pfn, Pfn(1));
        assert_eq!(pt.translate(Vpn(3)).unwrap().pfn, Pfn(2));
        assert_eq!(
            pt.update(Vpn(4), Pte::new(Pfn(9), PteFlags::default())),
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
                Pte::new(Pfn(i as u64), PteFlags::default()),
                &mut cy,
                &cost,
            )
            .unwrap();
        }
        let mut seen = Vec::new();
        pt.for_each_leaf_keyed(|_, v, _| seen.push(v.0));
        let mut expect: Vec<u64> = vpns.iter().map(|v| v.0).collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn update_rewrites_flags_in_place() {
        let (mut pt, mut cy, cost) = fixture();
        for i in 0..100u64 {
            pt.map(Vpn(i), Pte::new(Pfn(i), PteFlags::WRITABLE), &mut cy, &cost)
                .unwrap();
        }
        for i in 0..100u64 {
            let old = pt.update(Vpn(i), Pte::new(Pfn(i), PteFlags::COW)).unwrap();
            assert!(old.is_writable());
        }
        let mut cows = 0;
        pt.for_each_leaf_keyed(|_, _, pte| {
            assert!(!pte.is_writable());
            assert!(pte.is_cow());
            cows += 1;
        });
        assert_eq!(cows, 100);
    }

    #[test]
    fn unmap_range_takes_the_entries_in_range() {
        let build = || {
            let (mut pt, mut cy, cost) = fixture();
            for i in 0..20u64 {
                pt.map(Vpn(i * 10), Pte::new(Pfn(i), PteFlags::default()), &mut cy, &cost).unwrap();
            }
            pt
        };
        assert_eq!(unmapped_by(&build, 50, 101), vec![50, 60, 70, 80, 90, 100]);
        // What the node loses is shown it first, as one run.
        let mut pt = build();
        let mut runs = Vec::new();
        pt.unmap_range(50, 101, |gone| match gone {
            Unmapped::Run(leaf, run, dir) => runs.push((leaf.live_in(run.clone()), run, dir)),
            Unmapped::Block(_) => panic!("no block here"),
        });
        assert_eq!(runs, vec![(6, 50..101, false)]);
        assert_eq!(pt.mapped_pages(), 14);
        pt.unmap_range(0, 200, |_| {});
        assert_eq!((pt.mapped_pages(), pt.node_count()), (0, 1), "the emptied node and its path are let go of");
    }

    #[test]
    fn node_alloc_charges_cycles() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map(Vpn(0), Pte::new(Pfn(0), PteFlags::default()), &mut cy, &cost)
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
                .map(Vpn(i), Pte::new(Pfn(i), PteFlags::default()), &mut cy, &cost)
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
        assert!(leaf_shared(&parent, Vpn(5)));
        assert!(leaf_shared(&child, Vpn(5)));
        assert_eq!(child.translate(Vpn(7)).unwrap().pfn, Pfn(7));
    }

    #[test]
    fn privatize_makes_both_sides_exclusive_and_charges_deferred_copy() {
        let (mut parent, mut cy, cost) = fixture();
        for i in 0..8u64 {
            parent
                .map(Vpn(i), Pte::new(Pfn(i), PteFlags::default()), &mut cy, &cost)
                .unwrap();
        }
        let (base, l1, idx, _) = parent.leaf_slot_coords()[0];
        let arc = Arc::clone(parent.leaf_at(l1, idx));
        let mut child = PageTable::new();
        child.attach_leaf(base, arc, false, &mut cy, &cost).unwrap();

        let mut ucy = Cycles::new();
        let slot = child.find(Vpn(3)).unwrap();
        let copy = child.privatize_at(slot, &mut ucy, &cost).unwrap();
        assert_eq!(copy.live(), 8);
        assert_eq!(ucy.total(), cost.pt_node_alloc + 8 * cost.pte_copy);
        assert!(!leaf_shared(&child, Vpn(3)), "child now private");
        assert!(!leaf_shared(&parent, Vpn(3)), "parent exclusive again");
        // Mutating the private copy no longer affects the other side.
        child.update(Vpn(3), Pte::new(Pfn(99), PteFlags::default())).unwrap();
        assert_eq!(parent.translate(Vpn(3)).unwrap().pfn, Pfn(3));
        assert_eq!(child.translate(Vpn(3)).unwrap().pfn, Pfn(99));
    }

    #[test]
    fn detach_tears_down_empty_intermediates() {
        let (mut pt, mut cy, cost) = fixture();
        for i in 0..4u64 {
            pt.map(Vpn(i), Pte::new(Pfn(i), PteFlags::default()), &mut cy, &cost)
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
        pt.map(Vpn(1), Pte::new(Pfn(1), PteFlags::default()), &mut cy, &cost)
            .unwrap();
        pt.map(
            Vpn(0x40000),
            Pte::new(Pfn(2), PteFlags::default()),
            &mut cy,
            &cost,
        )
        .unwrap();
        let leaves = taken(&mut pt);
        let frames: Vec<Pfn> = leaves.iter().flat_map(|(entries, _)| entries.iter().map(|pte| pte.pfn)).collect();
        assert_eq!(frames, vec![Pfn(1), Pfn(2)], "one node each, in address order");
        assert_eq!(pt.node_count(), 1);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "missed unshare")]
    fn mutating_shared_subtree_panics() {
        let (mut parent, mut cy, cost) = fixture();
        parent
            .map(Vpn(0), Pte::new(Pfn(0), PteFlags::default()), &mut cy, &cost)
            .unwrap();
        let (base, l1, idx, _) = parent.leaf_slot_coords()[0];
        let arc = Arc::clone(parent.leaf_at(l1, idx));
        let mut child = PageTable::new();
        child.attach_leaf(base, arc, false, &mut cy, &cost).unwrap();
        let _ = parent.map(Vpn(1), Pte::new(Pfn(1), PteFlags::default()), &mut cy, &cost);
    }

    /// The slot of one block, used for a page of the next: both slots hold
    /// a leaf, so only the base the coordinates carry tells them apart.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not cover")]
    fn coordinates_kept_from_another_block_are_refused() {
        let (mut pt, mut cy, cost) = fixture();
        for vpn in [Vpn(0), Vpn(HUGE_PAGES)] {
            pt.map(vpn, Pte::new(Pfn(vpn.0), PteFlags::WRITABLE), &mut cy, &cost).unwrap();
        }
        let stale = pt.find(Vpn(0)).unwrap();
        let _ = pt.update_at(stale, Vpn(HUGE_PAGES), Pte::new(Pfn(9), PteFlags::WRITABLE));
    }

    // ---- huge leaves -----------------------------------------------------

    #[test]
    fn map_huge_translates_every_interior_page() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge_built(Vpn(512), huge(1024), &mut cy, &cost).unwrap();
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
        let old = unmap(&mut pt, Vpn(512)).unwrap();
        assert_eq!(old.pfn, Pfn(1024));
        assert!(old.is_huge());
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.huge_mapped(), 0);
        assert_eq!(pt.node_count(), 1, "intermediates reclaimed");
    }

    #[test]
    fn huge_and_small_overlap_is_rejected_both_ways() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge_built(Vpn(0), huge(0), &mut cy, &cost).unwrap();
        assert_eq!(
            pt.map(Vpn(5), Pte::new(Pfn(9), PteFlags::default()), &mut cy, &cost),
            Err(MemError::Overlap),
            "small page under a huge block"
        );
        assert_eq!(
            pt.map_huge_built(Vpn(0), huge(512), &mut cy, &cost),
            Err(MemError::Overlap)
        );
        pt.map(Vpn(512), Pte::new(Pfn(3), PteFlags::default()), &mut cy, &cost)
            .unwrap();
        assert_eq!(
            pt.map_huge_built(Vpn(512), huge(1024), &mut cy, &cost),
            Err(MemError::Overlap),
            "huge block over an existing small page"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "missed demote")]
    fn unmapping_part_of_a_huge_block_panics() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge_built(Vpn(0), huge(0), &mut cy, &cost).unwrap();
        pt.unmap_range(0, 3, |_| {});
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
        pt.map(Vpn(1023), Pte::new(Pfn(1535), PteFlags::default()), &mut cy, &cost)
            .unwrap();
        assert!(pt.promotable(Vpn(512)).is_none(), "mismatched flags");
        unmap(&mut pt, Vpn(1023)).unwrap();
        pt.map(Vpn(1023), Pte::new(Pfn(1535), flags), &mut cy, &cost)
            .unwrap();
        assert!(pt.promotable(Vpn(512)).is_some(), "fixed block promotes");
        // Discontiguous frame kills it.
        unmap(&mut pt, Vpn(515)).unwrap();
        pt.map(Vpn(515), Pte::new(Pfn(9000), flags), &mut cy, &cost)
            .unwrap();
        assert!(pt.promotable(Vpn(512)).is_none(), "discontiguous frames");
    }

    #[test]
    fn demote_restores_per_page_ptes_aliasing_the_run() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge_built(Vpn(0), huge(2048), &mut cy, &cost).unwrap();
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
        unmap(&mut pt, Vpn(3)).unwrap();
        assert_eq!(pt.mapped_pages(), 511);
    }

    #[test]
    fn full_l1_of_huge_blocks_collapses_into_directory() {
        let (mut pt, mut cy, cost) = fixture();
        // 512 huge blocks = 1 GiB: fills the level-1 node completely.
        for b in 0..512u64 {
            pt.map_huge_built(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
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
        // Read a node at a time: a run of 512 frames a block, one stretch.
        let dir = pt.leaf_slot(coords[0]);
        let runs: Vec<Range<u64>> = dir.frame_runs().collect();
        assert_eq!((runs.len(), runs[300].clone()), (512, 512 * 300..512 * 301));
        assert_eq!(dir.spans().collect::<Vec<_>>(), [Vpn(0)..Vpn(512 * 512)]);
        assert_eq!((dir.swap_slots().count(), dir.shared()), (0, None));
    }

    #[test]
    fn directory_attach_shares_a_gigabyte_in_one_pointer_copy() {
        let (mut parent, mut cy, cost) = fixture();
        for b in 0..512u64 {
            parent
                .map_huge_built(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
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
        assert!(leaf_shared(&parent, Vpn(1000)));
        assert!(leaf_shared(&child, Vpn(1000)));
        assert_eq!(child.translate(Vpn(777)).unwrap().pfn, Pfn(777));
        // Privatizing gives the child its own directory.
        let slot = child.find(Vpn(0)).unwrap();
        let copy = child.privatize_at(slot, &mut ccy, &cost).unwrap();
        assert_eq!(copy.live(), 512);
        assert!(copy.iter().all(|(_, p)| p.is_huge()));
        assert!(!leaf_shared(&child, Vpn(0)));
        assert!(!leaf_shared(&parent, Vpn(0)));
    }

    #[test]
    fn small_map_into_directory_hole_degroups() {
        let (mut pt, mut cy, cost) = fixture();
        for b in 0..512u64 {
            pt.map_huge_built(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        assert_eq!(pt.leaf_slot_coords()[0].3, SlotKind::Dir);
        // Open a block-aligned hole, then drop a small page into it.
        unmap(&mut pt, Vpn(512 * 10)).unwrap();
        assert_eq!(pt.huge_mapped(), 511);
        pt.map(
            Vpn(512 * 10 + 3),
            Pte::new(Pfn(42), PteFlags::default()),
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
            pt.map_huge_built(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
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
                .map_huge_built(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        let (base, n2, idx, _) = parent.leaf_slot_coords()[0];
        let arc = Arc::clone(parent.leaf_at(n2, idx));
        let mut child = PageTable::new();
        child.attach_leaf(base, arc, true, &mut cy, &cost).unwrap();
        let _ = unmap(&mut parent, Vpn(0));
    }

    #[test]
    fn whole_block_update_flips_huge_pte_in_place() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge_built(Vpn(0), huge(1024), &mut cy, &cost).unwrap();
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
        let small = |pt: &mut PageTable, cy: &mut Cycles, cost: &CostModel, v: u64| {
            pt.map(Vpn(v), Pte::new(Pfn(v), PteFlags::default()), cy, cost).unwrap()
        };
        let (mut pt, mut cy, cost) = fixture();
        small(&mut pt, &mut cy, &cost, 5);
        pt.map_huge_built(Vpn(1024), huge(2048), &mut cy, &cost).unwrap();
        let mut seen = Vec::new();
        pt.for_each_leaf_keyed(|_, v, p| seen.push((v.0, p.is_huge())));
        assert_eq!(seen, vec![(5, false), (1024, true)]);
        // Slot order is address order over a table mixing small leaves,
        // lone huge slots and a directory (the whole second GiB), and a
        // ranged walk yields nothing from a subtree outside its range.
        let gib = 512 * 512u64;
        let build = || {
            let (mut pt, mut cy, cost) = fixture();
            small(&mut pt, &mut cy, &cost, 5);
            pt.map_huge_built(Vpn(1024), huge(2048), &mut cy, &cost).unwrap();
            for b in 0..512u64 {
                pt.map_huge_built(Vpn(gib + b * 512), huge(gib + b * 512), &mut cy, &cost).unwrap();
            }
            for v in [2 * gib + 7, 1 << 30] {
                small(&mut pt, &mut cy, &cost, v);
            }
            pt
        };
        let pt = build();
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
        pt.for_each_leaf_keyed(|_, v, _| all.push(v.0));
        assert!(all.windows(2).all(|w| w[0] < w[1]), "ascending VPN order");
        assert_eq!(all.len(), 2 + 512 + 2);
        // A range takes the blocks that begin in it, each whole.
        let taken = |start: u64, pages: u64| unmapped_by(&build, start, start + pages);
        assert_eq!(taken(0, 4096), vec![5, 1024]);
        assert_eq!(taken(1024, 512), vec![1024]);
        assert_eq!(taken(6, 1018), Vec::<u64>::new(), "gap between slots");
        assert_eq!(taken(gib + 3 * 512, 1024), vec![gib + 3 * 512, gib + 4 * 512]);
        assert_eq!(taken(2 * gib, gib), vec![2 * gib + 7]);
        assert_eq!(taken(3 * gib, 1 << 29), Vec::<u64>::new(), "empty subtrees");
        let dir_only: Vec<u64> = pt.leaf_slots_in(gib, 2 * gib).iter().map(|c| c.0).collect();
        assert_eq!(dir_only, vec![gib], "neighbouring subtrees are not entered");
    }

    #[test]
    fn take_leaves_returns_lone_huges_and_directories() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge_built(Vpn(0), huge(0), &mut cy, &cost).unwrap();
        for b in 512..1024u64 {
            pt.map_huge_built(Vpn(b * 512), huge(b * 512), &mut cy, &cost)
                .unwrap();
        }
        let leaves = taken(&mut pt);
        assert_eq!(leaves.len(), 2);
        assert!(leaves[0].0[0].is_huge() && !leaves[0].1, "a lone block first");
        assert_eq!((leaves[1].0.len(), leaves[1].1), (512, true), "then the directory");
        assert!(leaves[1].0.iter().all(|p| p.is_huge()));
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.huge_mapped(), 0);
    }

    #[test]
    fn injected_demote_failure_leaves_block_huge() {
        let (mut pt, mut cy, cost) = fixture();
        pt.map_huge_built(Vpn(0), huge(1024), &mut cy, &cost).unwrap();
        let plan = fpr_faults::FaultPlan::passive().fail_at(FaultSite::PtDemote, 0);
        let (r, _) = fpr_faults::with_plan(plan, || pt.demote_block(Vpn(3), &mut cy, &cost));
        assert_eq!(r, Err(MemError::OutOfMemory));
        assert_eq!(pt.huge_mapped(), 1, "block untouched on injected failure");
        assert!(pt.translate(Vpn(3)).unwrap().is_huge());
        // Retry succeeds.
        pt.demote_block(Vpn(3), &mut cy, &cost).unwrap();
        assert_eq!(pt.huge_mapped(), 0);
    }

    // ---- node layout -----------------------------------------------------

    #[test]
    fn interior_node_keeps_map_index_and_entries_in_step() {
        let mut n = Node::new();
        for i in [300usize, 7, 511, 64, 0] {
            n.put(i, Entry::Table(i as u32));
            n.check().unwrap();
        }
        let slots = |n: &Node| n.entries().map(|(i, _)| i).collect::<Vec<_>>();
        assert_eq!(slots(&n), vec![0, 7, 64, 300, 511], "ascending, whatever the order of linking");
        assert_eq!(n.entries_in(7, 300).map(|(i, _)| i).collect::<Vec<_>>(), vec![7, 64]);
        // Taking the first linked moves the last linked into its place.
        assert!(matches!(n.take(300), Entry::Table(300)));
        n.check().unwrap();
        assert!(n.get(300).is_none());
        for i in [0usize, 7, 64, 511] {
            assert!(matches!(n.get(i), Some(Entry::Table(t)) if *t == i as u32), "slot {i}");
        }
        // Taking the last of the dense store moves nothing.
        assert!(matches!(n.take(64), Entry::Table(64)));
        n.check().unwrap();
        assert_eq!(slots(&n), vec![0, 7, 511]);
        n.clear();
        n.check().unwrap();
        assert_eq!((n.live(), slots(&n)), (0, vec![]));
        assert!(n.index.iter().all(|&at| at == 0), "an emptied node is a new node");
    }

    #[test]
    fn leaf_words_round_trip_and_scan_by_map() {
        let mut leaf = LeafNode::new();
        let leaf = own(&mut leaf);
        let swapped = Pte::swap_entry(0xABCD);
        let wide = Pte::new(Pfn((1 << 48) - 1), PteFlags::WRITABLE | PteFlags::HUGE);
        leaf.set(9, Some(swapped));
        leaf.set(500, Some(wide));
        leaf.set(130, Some(Pte::new(Pfn(0), PteFlags::default())));
        assert_eq!((leaf.get(9), leaf.get(500), leaf.get(10)), (Some(swapped), Some(wide), None));
        assert_eq!(leaf.get(130).unwrap().pfn, Pfn(0), "frame 0 present is not an empty word");
        assert_eq!(leaf.iter().map(|(j, _)| j).collect::<Vec<_>>(), vec![9, 130, 500]);
        assert_eq!((leaf.live(), leaf.swap_entries(), leaf.private.count()), (3, 1, 1));
        leaf.check().unwrap();
        assert_eq!(leaf.set(9, None), Some(swapped));
        assert_eq!(leaf.iter().map(|(j, _)| j).collect::<Vec<_>>(), vec![130, 500]);
        // A full node yields every entry.
        for j in 0..PT_ENTRIES {
            leaf.set(j, Some(Pte::new(Pfn(j as u64), PteFlags::USER)));
        }
        assert_eq!(leaf.live(), 512);
        assert!(leaf.iter().enumerate().all(|(n, (j, pte))| n == j && pte.pfn == Pfn(j as u64)));
        assert_eq!(leaf.iter().count(), 512);
        leaf.check().unwrap();
    }

    /// A node whose entries take every shape a fork tells apart: writable,
    /// read-only, COW-marked already, `MAP_SHARED` and swapped out (every
    /// eleventh); full over 64..128, every third position elsewhere.
    fn mixed_leaf() -> Arc<LeafNode> {
        let flags = [
            PteFlags::WRITABLE | PteFlags::DIRTY,
            PteFlags::USER,
            PteFlags::COW | PteFlags::ACCESSED,
            PteFlags::WRITABLE | PteFlags::SHARED,
        ];
        let mut leaf = LeafNode::new();
        for j in (0..PT_ENTRIES).filter(|j| (64..128).contains(j) || j % 3 == 0) {
            let pte = match j % 11 {
                0 => Pte::swap_entry(5000 + j as u64),
                _ => Pte::new(Pfn(1000 + j as u64), flags[j % 4]),
            };
            own(&mut leaf).set(j, Some(pte));
        }
        leaf
    }

    /// What is in a node: the entries, and the counts and the private
    /// writable map kept beside them.
    fn contents(leaf: &LeafNode) -> (Vec<(usize, Pte)>, LeafCounts, Occupancy) {
        leaf.check().unwrap();
        (leaf.iter().collect(), leaf.counts, leaf.private)
    }

    #[test]
    fn a_run_is_copied_and_marked_as_its_entries_would_be_one_by_one() {
        let src = mixed_leaf();
        let protect = |pte: Pte, cow: bool| {
            let flags = pte.flags.minus(PteFlags::WRITABLE);
            Pte { flags: if cow { flags.union(PteFlags::COW) } else { flags }, ..pte }
        };
        // Full, sparse, straddling both, empty, and the whole node.
        for run in [64..128, 0..64, 100..300, 1..3, 0..PT_ENTRIES] {
            let held: Vec<(usize, Pte)> = src.iter().filter(|(j, _)| run.contains(j)).collect();
            let (present, swapped): (Vec<_>, Vec<_>) = held.iter().partition(|(_, pte)| pte.is_present());
            assert_eq!((src.live_in(run.clone()), src.present_in(run.clone())), (held.len() as u64, present.len() as u64));
            let frames: Vec<Pfn> = src.frame_runs(run.clone(), false).ranges().flatten().map(Pfn).collect();
            assert_eq!(frames, present.iter().map(|(_, pte)| pte.pfn).collect::<Vec<_>>());
            let slots: Vec<u64> = src.swap_slots(run.clone()).collect();
            assert_eq!(slots, swapped.iter().map(|(_, pte)| pte.swap_slot()).collect::<Vec<_>>());
            // The node's frames run on wherever its present entries do,
            // whatever their flags: one run a stretch of neighbouring
            // entries, which a swap entry ends.
            let runs: Vec<Range<u64>> = src.frame_runs(run.clone(), false).ranges().collect();
            let spans = std::iter::successors(src.present.span_from(run.start, run.end), |s| src.present.span_from(s.end, run.end));
            assert_eq!(runs, spans.map(|s| 1000 + s.start as u64..1000 + s.end as u64).collect::<Vec<_>>());
            assert_eq!(src.writable_in(run.clone()), held.iter().any(|(_, pte)| pte.is_writable()));
            for n in [0, 1, held.len() / 2, held.len(), held.len() + 1] {
                let cut = src.first_in(run.clone(), n as u64);
                let kept = held.iter().filter(|(j, _)| cut.contains(j)).count();
                assert_eq!((cut.start, kept), (run.start, n.min(held.len())), "{run:?} cut behind {n}");
                assert!(cut.end == run.end || src.get(cut.end).is_some(), "the cut falls before an entry");
            }
            for marking in [false, true] {
                // Between two entries of other runs, as a fork leaves it.
                let (mut by_run, mut by_entry) = (LeafNode::new(), LeafNode::new());
                let (by_run, by_entry) = (own(&mut by_run), own(&mut by_entry));
                for leaf in [&mut *by_run, &mut *by_entry] {
                    leaf.set(0, Some(Pte::new(Pfn(1), PteFlags::WRITABLE)));
                    leaf.set(511, Some(Pte::swap_entry(9)));
                }
                let inner = run.start.max(1)..run.end.min(511);
                let inner_held: Vec<(usize, Pte)> = held.iter().copied().filter(|(j, _)| inner.contains(j)).collect();
                // A copy that moves each frame on by 100, as an eager fork's
                // copies a frame, and is handed the entries in order.
                let moved = |pte: Pte| Pte { pfn: Pfn(pte.pfn.0 + 100 * pte.is_present() as u64), ..pte };
                let mut handed = Vec::new();
                by_run.copy_run(&src, inner.clone(), marking, |word| {
                    let pte = LeafNode::unpack(word);
                    handed.push(pte);
                    LeafNode::pack(moved(pte))
                });
                assert_eq!(handed, inner_held.iter().map(|&(_, pte)| pte).collect::<Vec<_>>(), "{run:?}");
                for &(j, pte) in &inner_held {
                    let pte = moved(pte);
                    let marks = marking && (pte.is_writable() || pte.is_cow());
                    by_entry.set(j, Some(if marks { protect(pte, true) } else { pte }));
                }
                assert_eq!(contents(by_run), contents(by_entry), "{run:?}, marking {marking}");
            }
            // The parent's side: every writable entry write-protected — for
            // a fork also marked — each logged; and the run taken out.
            for cow in [false, true] {
                let (mut by_run, mut by_entry) = (src.private_copy(), src.private_copy());
                let (by_run, by_entry) = (own(&mut by_run), own(&mut by_entry));
                let mut undo = Vec::new();
                by_run.write_protect_run(run.clone(), cow, |j, pte| undo.push((j, pte)));
                for &(j, pte) in held.iter().filter(|(_, pte)| pte.is_writable()) {
                    by_entry.set(j, Some(protect(pte, cow)));
                }
                assert_eq!(contents(by_run), contents(by_entry), "{run:?}");
                assert_eq!(undo, held.iter().copied().filter(|(_, pte)| pte.is_writable()).collect::<Vec<_>>());
                assert_eq!(by_run.clear_run(run.clone()), held.len() as u64);
                held.iter().for_each(|&(j, _)| _ = by_entry.set(j, None));
                assert_eq!(contents(by_run), contents(by_entry), "{run:?} cleared");
            }
        }
    }

    #[test]
    #[should_panic(expected = "present or swapped")]
    fn an_entry_whose_word_could_be_zero_is_refused() {
        own(&mut LeafNode::new()).set(0, Some(Pte { pfn: Pfn(0), flags: PteFlags::USER }));
    }

    #[test]
    fn freed_arena_nodes_are_handed_out_as_they_are() {
        let (mut pt, mut cy, cost) = fixture();
        let pte = Pte::new(Pfn(1), PteFlags::default());
        // Two paths sharing the root only, then a third under the first's
        // level-2 node.
        for vpn in [Vpn(0), Vpn(1 << 27), Vpn(1 << 18)] {
            pt.map(vpn, pte, &mut cy, &cost).unwrap();
        }
        let arena = pt.nodes.len();
        assert_eq!((arena, pt.node_count()), (6, 9));
        unmap(&mut pt, Vpn(1 << 27)).unwrap();
        unmap(&mut pt, Vpn(1 << 18)).unwrap();
        assert_eq!((pt.free.len(), pt.node_count()), (3, 4), "siblings stay, the emptied go");
        pt.check_summaries().unwrap();
        // The next mappings take the freed nodes, which were not rebuilt.
        for vpn in [Vpn(5 << 27), Vpn((5 << 27) | (3 << 18))] {
            pt.map(vpn, pte, &mut cy, &cost).unwrap();
        }
        assert_eq!((pt.nodes.len(), pt.free.len(), pt.node_count()), (arena, 0, 9));
        assert_eq!(pt.translate(Vpn((5 << 27) | (3 << 18))), Some(pte));
        pt.check_summaries().unwrap();
    }

    #[test]
    fn take_leaves_keeps_the_arena_it_drained() {
        let (mut pt, mut cy, cost) = fixture();
        let pte = Pte::new(Pfn(1), PteFlags::default());
        for vpn in [Vpn(3), Vpn(1 << 27), Vpn((1 << 27) | (1 << 18))] {
            pt.map(vpn, pte, &mut cy, &cost).unwrap();
        }
        pt.map_huge_built(Vpn(512), huge(512), &mut cy, &cost).unwrap();
        let arena = pt.nodes.len();
        assert_eq!(taken(&mut pt).len(), 4);
        assert_eq!((pt.nodes.len(), pt.free.len()), (arena, arena - 1));
        assert_eq!((pt.node_count(), pt.mapped_pages(), pt.huge_mapped()), (1, 0, 0));
        pt.check_summaries().unwrap();
        let before = cy.total();
        pt.map(Vpn(1 << 27), pte, &mut cy, &cost).unwrap();
        assert_eq!(cy.total() - before, 3 * cost.pt_node_alloc, "reuse is charged like allocation");
        assert_eq!(pt.nodes.len(), arena);
        pt.check_summaries().unwrap();
    }

    /// Empties this thread's spare lists, so that a test sees only what it
    /// retires itself.
    fn drain_spares() {
        SPARES.with(|s| *s.borrow_mut() = Spares { leaves: Vec::new(), arenas: Vec::new() });
    }

    fn spare_counts() -> (usize, usize) {
        SPARES.with(|s| (s.borrow().leaves.len(), s.borrow().arenas.len()))
    }

    #[test]
    fn a_retired_leaf_comes_back_zero() {
        drain_spares();
        let (mut full, mut sparse, mut shared) = (LeafNode::new(), LeafNode::new(), LeafNode::new());
        let mut half = LeafNode::new();
        for j in 0..PT_ENTRIES {
            own(&mut full).set(j, Some(Pte::new(Pfn(j as u64), PteFlags::WRITABLE)));
            if j % 2 == 1 {
                own(&mut half).set(j, Some(Pte::new(Pfn(j as u64), PteFlags::USER)));
            }
        }
        for leaf in [&mut sparse, &mut shared] {
            own(leaf).set(3, Some(Pte::new(Pfn(9), PteFlags::WRITABLE)));
            own(leaf).set(64, Some(Pte::swap_entry(5)));
            own(leaf).set(511, Some(Pte::new(Pfn(7), PteFlags::USER)));
        }
        let retired = [&full, &half, &sparse, &shared].map(Arc::as_ptr);
        // A node another table still holds is let go of, not kept: the
        // last holder retires it.
        let other = Arc::clone(&shared);
        LeafNode::retire(shared);
        assert_eq!(spare_counts().0, 0);
        assert_eq!(other.live(), 3, "the other holder's node is as it was");
        for leaf in [full, half, sparse, other] {
            LeafNode::retire(leaf);
        }
        assert_eq!(spare_counts().0, 4);
        for _ in 0..4 {
            let leaf = LeafNode::new();
            assert!(retired.contains(&Arc::as_ptr(&leaf)), "a spare is the node retired, Arc and all");
            assert!(leaf.is_zero());
            assert_eq!((leaf.live(), leaf.private.count(), leaf.swap_entries()), (0, 0, 0));
            assert_eq!(leaf.iter().count(), 0);
            leaf.check().unwrap();
        }
        assert_eq!(spare_counts().0, 0);
        assert!(LeafNode::new().is_zero(), "an empty list falls back on the host");
    }

    #[test]
    fn a_retired_arena_comes_back_empty() {
        drain_spares();
        let (mut pt, mut cy, cost) = fixture();
        let pte = Pte::new(Pfn(1), PteFlags::default());
        for vpn in [Vpn(3), Vpn(1 << 27), Vpn((1 << 27) | (1 << 18)), Vpn(5 << 27)] {
            pt.map(vpn, pte, &mut cy, &cost).unwrap();
        }
        pt.map_huge_built(Vpn(512), huge(512), &mut cy, &cost).unwrap();
        unmap(&mut pt, Vpn(5 << 27)).unwrap();
        let arena = pt.nodes.len();
        assert!(arena > 6 && !pt.free.is_empty());
        // Dropped as it stands, leaves and all.
        drop(pt);
        assert_eq!(spare_counts(), (1, 1), "the leaf `unmap` emptied, and the arena");
        let mut pt = PageTable::new();
        assert_eq!(spare_counts().1, 0);
        assert_eq!((pt.root, pt.nodes.len(), pt.node_count()), (0, arena, 1));
        assert_eq!(pt.free, (1..arena as u32).collect::<Vec<_>>());
        for node in &pt.nodes {
            assert!(node.held.is_empty() && node.occupied == Occupancy::default());
            assert!(node.index.iter().all(|&at| at == 0));
        }
        assert_eq!((pt.mapped_pages(), pt.huge_mapped()), (0, 0));
        pt.check_summaries().unwrap();
        let before = cy.total();
        pt.map(Vpn(7 << 27), pte, &mut cy, &cost).unwrap();
        assert_eq!(cy.total() - before, 3 * cost.pt_node_alloc, "a spare node is charged like a new one");
        assert_eq!(pt.nodes.len(), arena);
        pt.check_summaries().unwrap();
    }

    #[test]
    fn the_spare_lists_keep_to_their_bounds() {
        drain_spares();
        let (mut cy, cost) = (Cycles::new(), CostModel::default());
        let pte = Pte::new(Pfn(1), PteFlags::default());
        // What `AddressSpace::destroy` does with a table.
        let destroy = |mut pt: PageTable| {
            pt.take_leaves(|_| {});
        };
        for cycle in 0..10_000 {
            let mut pt = PageTable::new();
            for leaf in 0..32 {
                pt.map(Vpn(leaf * 512 + cycle % 512), pte, &mut cy, &cost).unwrap();
            }
            destroy(pt);
            assert_eq!(spare_counts(), (32, 1), "cycle {cycle}: what one table needs, and no more");
        }
        // More tables at once than there is room for spares of, one of them
        // bigger than a spare arena may be.
        let mut tables: Vec<PageTable> = (0..2 * SPARE_ARENAS).map(|_| PageTable::new()).collect();
        for (t, pt) in tables.iter_mut().enumerate() {
            let leaves = if t == 0 { 3 * SPARE_ARENA_NODES as u64 } else { 12 };
            for leaf in 0..leaves {
                // One level-1 node per leaf.
                pt.map(Vpn(leaf << 18), pte, &mut cy, &cost).unwrap();
            }
        }
        assert!(tables[0].nodes.len() > SPARE_ARENA_NODES);
        tables.into_iter().for_each(destroy);
        assert_eq!(spare_counts(), (SPARE_LEAVES, SPARE_ARENAS));
        SPARES.with(|s| {
            for (nodes, free, scratch) in &s.borrow().arenas {
                assert!(nodes.len() <= SPARE_ARENA_NODES && free.len() == nodes.len() - 1);
                assert!(scratch.is_empty() && scratch.capacity() <= SPARE_ARENA_NODES);
            }
        });
        // Every spare is a good start.
        let mut started: Vec<PageTable> = (0..SPARE_ARENAS).map(|_| PageTable::new()).collect();
        assert_eq!(spare_counts().1, 0);
        for pt in &mut started {
            pt.map(Vpn(9), pte, &mut cy, &cost).unwrap();
            pt.check_summaries().unwrap();
        }
    }

    #[test]
    fn a_clone_of_a_table_aliases_no_spare() {
        drain_spares();
        let (mut pt, mut cy, cost) = fixture();
        let pte = Pte::new(Pfn(4), PteFlags::WRITABLE);
        pt.map(Vpn(8), pte, &mut cy, &cost).unwrap();
        let (_, node, idx, _) = pt.find(Vpn(8)).unwrap();
        let held = Arc::as_ptr(pt.leaf_at(node, idx));
        // A clone holds the same leaf nodes, as an on-demand fork would.
        let snapshot = pt.clone();
        assert!(leaf_shared(&pt, Vpn(8)));
        LeafNode::retire(Arc::clone(pt.leaf_at(node, idx)));
        assert_eq!(spare_counts(), (0, 0), "a node two tables hold is nobody's spare");
        drop(snapshot);
        // The clone's arena is a spare; the leaf it shared is not.
        assert_eq!(spare_counts(), (0, 1));
        assert!(!leaf_shared(&pt, Vpn(8)));
        let mut next = PageTable::new();
        next.map(Vpn(8), Pte::new(Pfn(5), PteFlags::default()), &mut cy, &cost).unwrap();
        let (_, node, idx, _) = next.find(Vpn(8)).unwrap();
        assert_ne!(Arc::as_ptr(next.leaf_at(node, idx)), held);
        assert_eq!(pt.translate(Vpn(8)), Some(pte));
        pt.check_summaries().unwrap();
        next.check_summaries().unwrap();
    }

    #[test]
    fn check_summaries_names_a_summary_that_is_off() {
        let (mut pt, mut cy, cost) = fixture();
        let pte = Pte::new(Pfn(1), PteFlags::WRITABLE);
        for vpn in [Vpn(0), Vpn(1 << 27)] {
            pt.map(vpn, pte, &mut cy, &cost).unwrap();
        }
        unmap(&mut pt, Vpn(1 << 27)).unwrap();
        pt.check_summaries().unwrap();
        let broken = |f: &dyn Fn(&mut PageTable)| {
            let mut pt = pt.clone();
            f(&mut pt);
            pt.check_summaries().unwrap_err()
        };
        let root = pt.root as usize;
        assert!(broken(&|pt| pt.nodes[root].occupied.set(9)).contains("node 0"));
        assert!(broken(&|pt| pt.nodes[root].index[9] = 1).contains("slot 9"));
        assert!(broken(&|pt| pt.nodes[root].index[0] = 0).contains("slot 0"));
        let freed = pt.free[0];
        let err = broken(&|pt| pt.nodes[freed as usize].put(4, Entry::Huge(huge(0))));
        assert!(err.contains("free-listed"), "{err}");
        assert!(broken(&|pt| pt.free.push(freed)).contains("twice"));
        assert!(broken(&|pt| pt.free.truncate(0)).contains("not on the free list"));
        let in_leaf = |f: &dyn Fn(&mut LeafNode)| {
            broken(&|pt| {
                let (_, node, idx, _) = pt.find(Vpn(0)).unwrap();
                // The clone shares the node with the table it is a clone of.
                let leaf = pt.leaf_at_mut(node, idx);
                *leaf = leaf.private_copy();
                f(own(leaf))
            })
        };
        assert!(in_leaf(&|leaf| leaf.words[5] = 1 << FLAG_BITS | 1).contains("entry 5"));
        assert!(in_leaf(&|leaf| leaf.words[0] = 0).contains("entry 0"));
        assert!(in_leaf(&|leaf| leaf.counts.live = 0).contains("keeps"));
        // The private writable entries, a map: emptied, and one bit flipped
        // where there is no entry.
        assert!(in_leaf(&|leaf| leaf.private = Occupancy::default()).contains("entry 0"));
        assert!(in_leaf(&|leaf| leaf.private.0[3] ^= 1 << 7).contains("entry 199"));
    }
}
