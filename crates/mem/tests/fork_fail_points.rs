//! What `fork_from` — and, below it, `slide_vma` — leaves behind at every
//! one of its fail points, pinned.
//!
//! A ≈ 40-page parent built to reach every arm of the fork walk is forked
//! in each mode passively, and then through `fpr_faults::sweep`: under a
//! scope that only counts, and once per fail point *k* under
//! `FaultPlan::fail_nth_crossing(k)`. Every run records what
//! a caller — and the rollback — can observe: the result, the cycles the
//! call charged, the `ptes_copied` / `vmas_cloned` deltas, the `FaultTrace`,
//! and afterwards every PTE of the parent, every frame's and swap slot's
//! reference count and `used_frames()`. The records fold into one digest
//! per mode, pinned below: however the walk batches its per-entry work, a
//! failure at crossing *k* must leave exactly this. An eager fork's digest
//! folds only what the flat model of `proptest_reference.rs` cannot say —
//! the verdict, the cycles, the counts and the trace: what an eager fork
//! leaves behind at a refusal, that model judges.
//!
//! A THP parent ([`thp_world`]) is swept the same way, for the arms a huge
//! block takes through the walk: a lone block, a directory an on-demand fork
//! shares, and the eager fork's copy of a block into frames of its own.
//!
//! The second half does the same for `slide_vma`, the warm pool's
//! re-randomising move: a space of its own ([`slide_world`]), a list of
//! slides that between them reach every arm ([`SLIDES`]), each run
//! passively, counted and once per fail point of `PtNodeAlloc`, `PtUnshare`
//! and `PtDemote`, one digest over all of it. Last, `munmap`, `discard` and
//! `mprotect` ([`RANGES`]) over a space with a block, nodes an on-demand fork
//! shares and swap entries ([`range_world`]), pinned the same way: what they
//! charge, flush and leave. And `populate` ([`POPULATES`]) over the holes of
//! that space and over a file mapping of a space of its own
//! ([`file_world`]), with a digest of its own that folds the frame and
//! demand-fill counters it moves and what every page holds besides.

use fpr_faults::{sweep, FaultSite, FaultTrace, Point};
use fpr_mem::address_space::{heap_vma, ForkMode};
use fpr_mem::{AddressSpace, Backing, CostModel, Cycles, MemError, Pfn, PhysMemory, Prot, Pte, Share};
use fpr_mem::{TlbModel, VmArea, VmaKind, Vpn};
use fpr_trace::metrics;
use std::cell::Cell;

const FRAMES: u64 = 128;
const SWAP_SLOTS: u64 = 4;

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    parent: AddressSpace,
}

/// The parent. By leaf node (512 pages each):
///
/// * node 0 and 1 — a private RW mapping over 506..520, straddling the two,
///   with 510..513 never touched (a hole inside one VMA's run), one page
///   already COW-marked;
/// * node 1 — a `MAP_SHARED` neighbour at 530..534, and a private mapping
///   at 540..546 whose page 542 `mprotect` made read-only (three VMAs, so
///   three more runs in the node);
/// * node 2 — inherited pages at 1024..1028 and 1050..1054 around a
///   `WIPEONFORK` range at 1030..1033 and a `DONTFORK` one at 1040..1043,
///   so `OnDemand` cannot attach the node and copies it;
/// * node 3 — three pages at 1541..1544, the middle one swapped out.
fn world() -> World {
    let mut phys = PhysMemory::new(FRAMES, CostModel::default());
    phys.set_swap_capacity(SWAP_SLOTS);
    let mut w = World { phys, cycles: Cycles::new(), tlb: TlbModel::new(), parent: AddressSpace::new() };
    let World { phys, cycles, tlb, parent } = &mut w;
    let mut map = |parent: &mut AddressSpace, area: VmArea| parent.mmap(area, phys, cycles).unwrap();
    map(parent, heap_vma(Vpn(506), 14));
    let mut shared = VmArea::anon(Vpn(530), 4, Prot::RW, VmaKind::Mmap);
    shared.share = Share::Shared;
    map(parent, shared);
    map(parent, heap_vma(Vpn(540), 6));
    map(parent, heap_vma(Vpn(1024), 30));
    map(parent, heap_vma(Vpn(1541), 3));
    let touched = [506..510, 513..520, 540..546, 1024..1028, 1030..1033, 1040..1043, 1050..1054, 1541..1544];
    for vpn in touched.into_iter().flatten() {
        parent.write(Vpn(vpn), 7000 + vpn, phys, cycles, tlb, 1).unwrap();
    }
    parent.cow_protect_page(Vpn(515), phys, cycles).unwrap();
    parent.mprotect(Vpn(542), 1, Prot::R, cycles, phys, tlb, 1).unwrap();
    parent.set_fork_policy(Vpn(1030), 3, |p| p.wipe_on_fork = true).unwrap();
    parent.set_fork_policy(Vpn(1040), 3, |p| p.dont_fork = true).unwrap();
    let slot = phys.swap_out_page(7000 + 1542, cycles).unwrap();
    parent.swap_out_commit(Vpn(1542), slot, phys, cycles);
    assert_eq!((parent.resident_pages(), parent.swapped_pages()), (37, 1));
    assert_eq!(parent.check_page_table(), Ok(()));
    w
}

/// FNV-1a over the 64-bit words of a record.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn pte(&mut self, vpn: u64, pte: Pte) {
        self.word(vpn);
        self.word(pte.pfn.0);
        self.word(pte.flags.0 as u64);
    }
}

/// Every entry `space` maps, swap entries included, by mapping.
fn mapped(space: &AddressSpace) -> Vec<(u64, Pte)> {
    let pages = space.vmas().flat_map(|v| v.start.0..v.start.0 + v.pages);
    pages.filter_map(|vpn| space.translate(Vpn(vpn)).map(|pte| (vpn, pte))).collect()
}

/// Reference count of every frame and every swap slot, zero where unheld.
fn refs(phys: &PhysMemory) -> Vec<u32> {
    let frames = (0..phys.total_frames()).map(|pfn| phys.refs(Pfn(pfn)).unwrap_or(0));
    let slots = (0..phys.swap().capacity()).map(|slot| phys.swap().refs(slot).unwrap_or(0));
    frames.chain(slots).collect()
}

/// Runs `op` on `world` with nobody listening: a run without a trace.
fn unobserved<W, R>(mut world: W, op: impl FnOnce(&mut W) -> R) -> Point<W, R> {
    let result = op(&mut world);
    Point { fault: None, world, result, trace: FaultTrace::default() }
}

fn fold_trace(trace: &FaultTrace, d: &mut Digest) {
    for c in &trace.crossings {
        d.word(c.site.index() as u64);
        d.word(c.occurrence);
        d.word(c.global_index);
        d.word(c.injected as u64);
    }
}

/// What one `fork_from` call did, as far as anyone can tell afterwards,
/// besides the world it left.
struct Forked {
    child: Result<AddressSpace, MemError>,
    charged: u64,
    ptes_copied: u64,
    vmas_cloned: u64,
}

/// A fork, its world and what it crossed.
type Run = Point<World, Forked>;

fn fork(w: &mut World, mode: ForkMode) -> Forked {
    let (at, copied, cloned) = (w.cycles.total(), w.parent.stats.ptes_copied, w.parent.stats.vmas_cloned);
    let child = AddressSpace::fork_from(&mut w.parent, mode, &mut w.phys, &mut w.cycles, &mut w.tlb, 2);
    Forked {
        child,
        charged: w.cycles.total() - at,
        ptes_copied: w.parent.stats.ptes_copied - copied,
        vmas_cloned: w.parent.stats.vmas_cloned - cloned,
    }
}

/// Whether a sweep's digest folds what a fork leaves behind, too: not for an
/// eager fork, which the flat model judges.
fn pins_state(mode: ForkMode) -> bool {
    mode != ForkMode::Eager
}

/// Folds what the fork charged, counted and crossed, and — with `state` —
/// what it left.
fn fold_fork(run: &Run, d: &mut Digest, state: bool) {
    let forked = &run.result;
    d.word(match &forked.child {
        Ok(_) => 0,
        Err(MemError::OutOfMemory) => 1,
        Err(e) => panic!("a fork fails with OutOfMemory or not at all, not {e:?}"),
    });
    d.word(forked.charged);
    d.word(forked.ptes_copied);
    d.word(forked.vmas_cloned);
    fold_trace(&run.trace, d);
    if !state {
        return;
    }
    let spaces = [Some(&run.world.parent), forked.child.as_ref().ok()];
    for space in spaces.into_iter().flatten() {
        mapped(space).into_iter().for_each(|(vpn, pte)| d.pte(vpn, pte));
        d.word(space.resident_pages());
        d.word(space.swapped_pages());
        d.word(space.pt_nodes() as u64);
    }
    refs(&run.world.phys).into_iter().for_each(|r| d.word(r as u64));
    d.word(run.world.phys.used_frames());
}

/// Tears both spaces down; nothing may be left.
fn finish_fork(mut run: Run) {
    let World { phys, cycles, parent, .. } = &mut run.world;
    if let Ok(child) = &mut run.result.child {
        assert_eq!(child.check_page_table(), Ok(()));
        child.destroy(phys, cycles);
    }
    assert_eq!(parent.check_page_table(), Ok(()));
    parent.destroy(phys, cycles);
    assert_eq!((phys.used_frames(), phys.swap().used_slots()), (0, 0));
}

/// Forks the parent `build` makes in `mode` every way a fork can end and
/// returns the number of fail points with the digest of everything observed.
fn fork_points(build: fn() -> World, mode: ForkMode) -> (u64, u64) {
    let mut digest = Digest::new();
    let untouched = build();
    let (parent_before, refs_before) = (mapped(&untouched.parent), refs(&untouched.phys));
    let used_before = untouched.phys.used_frames();

    // Nobody listening, and (the sweep's first run) a scope that only
    // counts: the same fork.
    let passive = unobserved(build(), |w| fork(w, mode));
    fold_fork(&passive, &mut digest, pins_state(mode));
    let counted = sweep(None, build, |w| fork(w, mode), |run| {
        if let Some(fault) = run.fault {
            let k = fault.global_index;
            assert_eq!(run.result.child.as_ref().err(), Some(&MemError::OutOfMemory), "{mode:?} point {k}");
            assert_eq!(run.trace.len() as u64, k + 1, "{mode:?} point {k}: the walk went on after the fault");
            // The rollback is complete — which the digest pins too, but says
            // less clearly when it breaks.
            assert_eq!(mapped(&run.world.parent), parent_before, "{mode:?} point {k}: parent PTEs");
            assert_eq!(refs(&run.world.phys), refs_before, "{mode:?} point {k}: reference counts");
            assert_eq!(run.world.phys.used_frames(), used_before, "{mode:?} point {k}");
        } else {
            let (p, c) = (&passive.result, &run.result);
            let (a, b) = (p.child.as_ref().unwrap(), c.child.as_ref().unwrap());
            assert_eq!(mapped(a), mapped(b), "{mode:?}: the child's entries depend on who listens");
            assert_eq!(mapped(&passive.world.parent), mapped(&run.world.parent), "{mode:?}");
            assert_eq!(refs(&passive.world.phys), refs(&run.world.phys), "{mode:?}");
            assert_eq!((p.charged, p.ptes_copied, p.vmas_cloned), (c.charged, c.ptes_copied, c.vmas_cloned), "{mode:?}");
            assert_eq!((a.resident_pages(), a.swapped_pages()), (b.resident_pages(), b.swapped_pages()));
        }
        fold_fork(&run, &mut digest, pins_state(mode));
        finish_fork(run);
    });
    finish_fork(passive);
    (counted.len() as u64, digest.0)
}

#[test]
fn every_fail_point_leaves_what_it_left_before() {
    // (mode, fail points, digest), obtained from the fork walk that copies a
    // run at a time — an eager one's frames with one batched copy a run.
    let pinned = [
        (ForkMode::Cow, 42, 0x0004_b31c_f39f_e74d_u64),
        (ForkMode::OnDemand, 21, 0x85a2_20f1_c4a1_38bd),
        (ForkMode::Eager, 69, 0x2b5a_fea1_b87d_f9a5),
    ];
    let got = pinned.map(|(mode, ..)| {
        let (fail_points, digest) = fork_points(world, mode);
        (mode, fail_points, digest)
    });
    assert_eq!(got, pinned, "got {got:#x?}");
}

// -------------------------------------------------------------- huge blocks

/// Frames of the THP parent's machine: six 2 MiB windows and a tail of
/// [`THP_TAIL`] frames.
const THP_FRAMES: u64 = 6 * 512 + THP_TAIL;
const THP_TAIL: u64 = 32;
/// The first page of the second GiB.
const GIB: u64 = 512 * 512;

/// A THP parent with three 2 MiB blocks, each reaching an arm of the fork
/// walk of its own:
///
/// * a lone block at 0..512, whose level-1 node also links the leaf node of
///   the small pages at 512..520: it stays a lone block in every mode;
/// * two blocks at `GIB`..`GIB + 1024` and nothing else under their level-1
///   node, which an on-demand fork groups into a directory of two and
///   shares whole;
/// * and frames laid out so that an eager fork, which copies each block
///   into a 2 MiB run of its own, finds runs for the first two blocks and
///   none for the third: it copies that one into 512 frames taken one at a
///   time and a node of the block's own.
///
/// The buddy hands a frame out of its smallest free block. So a mapping
/// holds the tail while the small pages split a window, the blocks take
/// three windows, and the tail comes back: two windows are free, and the
/// frames left of the split one with the tail are enough for the pages of
/// one block and no more blocks.
fn thp_world() -> World {
    let phys = PhysMemory::new(THP_FRAMES, CostModel::default());
    let mut w = World { phys, cycles: Cycles::new(), tlb: TlbModel::new(), parent: AddressSpace::new() };
    let World { phys, cycles, tlb, parent } = &mut w;
    parent.set_thp(true);
    let tail = Vpn(4096);
    parent.mmap(heap_vma(tail, THP_TAIL), phys, cycles).unwrap();
    parent.populate(tail, THP_TAIL, phys, cycles).unwrap();
    parent.mmap(heap_vma(Vpn(0), 1024), phys, cycles).unwrap();
    parent.mmap(heap_vma(Vpn(GIB), 1024), phys, cycles).unwrap();
    for vpn in 512..520 {
        parent.write(Vpn(vpn), 7000 + vpn, phys, cycles, tlb, 1).unwrap();
    }
    for block in [0, GIB, GIB + 512] {
        parent.populate(Vpn(block), 512, phys, cycles).unwrap();
        parent.write(Vpn(block + 3), 9000 + block, phys, cycles, tlb, 1).unwrap();
    }
    parent.munmap(tail, THP_TAIL, phys, cycles, tlb, 1).unwrap();
    assert_eq!((parent.huge_pages(), parent.resident_pages()), (3, 3 * 512 + 8));
    assert_eq!(parent.check_page_table(), Ok(()));
    w
}

#[test]
fn every_thp_fork_fail_point_leaves_what_it_left_before() {
    // (mode, fail points, digest), obtained from the fork walk that copies a
    // run at a time, a block as a run of 512 frames.
    let pinned = [
        (ForkMode::Cow, 13, 0x7143_22cb_6635_6c0b_u64),
        (ForkMode::OnDemand, 5, 0x211a_fec1_d2dc_5be8),
        (ForkMode::Eager, 1044, 0x4a6b_ddcf_59e3_12b4),
    ];
    // What the child gets: its blocks and the nodes it shares — none but
    // the directory, and the small pages' node under `OnDemand`.
    for (mode, arms) in [(ForkMode::Cow, (3, 0)), (ForkMode::OnDemand, (3, 2)), (ForkMode::Eager, (2, 0))] {
        let forked = unobserved(thp_world(), |w| fork(w, mode));
        let child = forked.result.child.as_ref().unwrap();
        assert_eq!((child.huge_pages(), forked.world.parent.stats.pt_subtrees_shared), arms, "{mode:?}");
        assert_eq!(child.resident_pages(), 3 * 512 + 8, "{mode:?}");
        finish_fork(forked);
    }
    let got = pinned.map(|(mode, ..)| {
        let (fail_points, digest) = fork_points(thp_world, mode);
        (mode, fail_points, digest)
    });
    assert_eq!(got, pinned, "got {got:#x?}");
}

// ------------------------------------------------------------------ slides

const SLIDE_FRAMES: u64 = 2048;
/// Pages of user space: the lower half of a 48-bit address space.
const USER_END: u64 = 1 << 35;
/// A page whose path shares no node but the root with anything mapped.
const FAR: u64 = (1 << 27) | (3 << 18) | (5 << 9);

/// A space and an on-demand fork of it, kept alive for the nodes it shares:
/// what a slide, and a range operation, runs on.
struct Pair {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    space: AddressSpace,
    fork: AddressSpace,
}

/// The space whose mappings slide, THP on. By leaf node:
///
/// * node 0 — `A`, six pages at 500..506, and the head of `B`, 506..520:
///   two mappings in one node;
/// * node 1 — the rest of `B`, whose pages 510..513, either side of the
///   node boundary, were never touched;
/// * node 2 — `C` at 1024..1030;
/// * node 4 — `H` at 2048..2560, populated at once: one 2 MiB block;
/// * node 16 — `P` at 8192..8704, another;
/// * `E` at 3000..3004, nothing resident.
///
/// Then the space is forked on demand, and writes to 500 and 515 make
/// nodes 0 and 1 its own again: node 2 stays shared with the fork, and the
/// blocks' frames are referenced twice. Last, a `WIPEONFORK` range makes
/// 8292..8300 a mapping of its own in the middle of `P`.
fn slide_world() -> Pair {
    let mut phys = PhysMemory::new(SLIDE_FRAMES, CostModel::default());
    let (mut cycles, mut tlb, mut space) = (Cycles::new(), TlbModel::new(), AddressSpace::new());
    space.set_thp(true);
    for (start, pages) in [(500, 6), (506, 14), (1024, 6), (2048, 512), (3000, 4), (8192, 512)] {
        space.mmap(heap_vma(Vpn(start), pages), &mut phys, &mut cycles).unwrap();
    }
    for vpn in [500..510, 513..520, 1024..1030].into_iter().flatten() {
        space.write(Vpn(vpn), 7000 + vpn, &mut phys, &mut cycles, &mut tlb, 1).unwrap();
    }
    for block in [2048, 8192] {
        space.populate(Vpn(block), 512, &mut phys, &mut cycles).unwrap();
    }
    assert_eq!((space.huge_pages(), space.resident_pages()), (2, 23 + 1024));
    let fork = AddressSpace::fork_from(&mut space, ForkMode::OnDemand, &mut phys, &mut cycles, &mut tlb, 1).unwrap();
    for vpn in [500, 515] {
        space.write(Vpn(vpn), 8000 + vpn, &mut phys, &mut cycles, &mut tlb, 1).unwrap();
    }
    assert_eq!(space.stats.pt_unshares, 2);
    // After the fork, which would have split the block for it.
    space.set_fork_policy(Vpn(8292), 8, |p| p.wipe_on_fork = true).unwrap();
    assert_eq!(space.huge_pages(), 2);
    Pair { phys, cycles, tlb, space, fork }
}

/// `(mapping, destination)`: every arm of `slide_vma`.
const SLIDES: [(u64, u64); 14] = [
    // Into a node the space owns, next to what is there.
    (500, 600),
    // Into the node the fork shares: the destination is unshared.
    (500, 1100),
    // Out of two nodes, the hole between them, by a distance that is no
    // multiple of a node: into the shared node and one that does not exist,
    // under the level-1 node everything hangs from.
    (506, 1531),
    // The same where there is no path at all, across a node boundary.
    (506, FAR + 509),
    // Out of the shared node.
    (1024, 1700),
    // The block, whole.
    (2048, 4096),
    // The block, split: 512 entries into two nodes.
    (2048, 5003),
    // Eight pages out of the middle of a block, which is split for it.
    (8292, 12_000),
    // Nothing resident: nothing to do but re-key the mapping.
    (3000, 9000),
    // Nowhere, onto itself, into a neighbour, off the end, and from a page
    // no mapping starts at.
    (500, 500),
    (500, 503),
    (500, 515),
    (500, USER_END - 3),
    (501, 9000),
];

/// Where the mappings are — `(start, pages)` — and which frame every page
/// translates to — `(page, frame)`: what a failed slide leaves as it was
/// even where it split a block or unshared a node before it failed.
#[derive(Debug, PartialEq)]
struct Layout {
    vmas: Vec<(u64, u64)>,
    frames: Vec<(u64, u64)>,
}

fn layout(space: &AddressSpace) -> Layout {
    Layout {
        vmas: space.vmas().map(|v| (v.start.0, v.pages)).collect(),
        frames: mapped(space).into_iter().map(|(vpn, pte)| (vpn, pte.pfn.0)).collect(),
    }
}

/// An operation on a [`Pair`]: what it returned and the cycles it charged.
type PairRun = Point<Pair, (Result<u64, MemError>, u64)>;

/// Runs `op` on `w`, returning what it returned and the cycles it charged.
fn charged(w: &mut Pair, op: impl FnOnce(&mut Pair) -> Result<u64, MemError>) -> (Result<u64, MemError>, u64) {
    let at = w.cycles.total();
    let result = op(w);
    (result, w.cycles.total() - at)
}

fn slide(w: &mut Pair, (from, to): (u64, u64)) -> (Result<u64, MemError>, u64) {
    charged(w, |w| w.space.slide_vma(Vpn(from), Vpn(to), &mut w.phys, &mut w.cycles))
}

fn fold_pair(run: &PairRun, d: &mut Digest) {
    let (result, charged) = &run.result;
    match result {
        Ok(moved) => [0, *moved],
        Err(e) => [1, [MemError::OutOfMemory, MemError::NotMapped, MemError::Overlap, MemError::BadAddress, MemError::SwapIo]
            .iter()
            .position(|known| known == e)
            .unwrap_or_else(|| panic!("no slide, range operation or populate fails with {e:?}")) as u64],
    }
    .into_iter()
    .for_each(|w| d.word(w));
    d.word(*charged);
    fold_trace(&run.trace, d);
    for space in [&run.world.space, &run.world.fork] {
        mapped(space).into_iter().for_each(|(vpn, pte)| d.pte(vpn, pte));
        d.word(space.resident_pages());
        d.word(space.pt_nodes() as u64);
        d.word(space.stats.pt_unshares);
    }
    let frames = (0..run.world.phys.total_frames()).map(|pfn| run.world.phys.refs(Pfn(pfn)).unwrap_or(0));
    frames.for_each(|r| d.word(r as u64));
    d.word(run.world.phys.used_frames());
}

/// Tears both spaces down; nothing may be left.
fn finish_pair(mut run: PairRun) {
    let Pair { phys, cycles, space, fork, .. } = &mut run.world;
    for space in [space, fork] {
        assert_eq!(space.check_page_table(), Ok(()));
        space.destroy(phys, cycles);
    }
    assert_eq!((phys.used_frames(), phys.swap().used_slots()), (0, 0));
}

#[test]
fn every_slide_fail_point_leaves_what_it_left_before() {
    let mut digest = Digest::new();
    let mut fail_points = 0;
    let untouched = slide_world();
    let (space_before, fork_before) = (layout(&untouched.space), layout(&untouched.fork));
    for pair in SLIDES {
        let passive = unobserved(slide_world(), |w| slide(w, pair));
        if let Ok(moved) = passive.result.0 {
            // Every frame is where it was, or `to - from` pages further on.
            let (from, to) = pair;
            let slid = |vpn: u64| untouched.space.vma_at(Vpn(vpn)).unwrap().start.0 == from;
            let mut expected = space_before.frames.clone();
            expected.iter_mut().filter(|(vpn, _)| slid(*vpn)).for_each(|(vpn, _)| *vpn = *vpn - from + to);
            expected.sort_unstable();
            let mut got = layout(&passive.world.space).frames;
            got.sort_unstable();
            assert_eq!(got, expected, "{pair:?}");
            assert!(moved <= 512, "{pair:?}");
        } else {
            assert_eq!(layout(&passive.world.space), space_before, "{pair:?}: a refused slide moved something");
            assert_eq!(passive.result.1, 0, "{pair:?}: a refused slide cost something");
        }
        fold_pair(&passive, &mut digest);
        let counted = sweep(None, slide_world, |w| slide(w, pair), |run| {
            if let Some(fault) = run.fault {
                let k = fault.global_index;
                assert_eq!(run.result.0, Err(MemError::OutOfMemory), "{pair:?} point {k}");
                assert_eq!(run.trace.len() as u64, k + 1, "{pair:?} point {k}: the slide went on");
                assert_eq!(layout(&run.world.space), space_before, "{pair:?} point {k}: the space");
                assert_eq!(layout(&run.world.fork), fork_before, "{pair:?} point {k}: the fork");
                // The destination's path is gone again; a block split on the
                // way stays split, in a node of its own.
                let split = (untouched.space.huge_pages() - run.world.space.huge_pages()) as usize;
                assert_eq!(run.world.space.pt_nodes(), untouched.space.pt_nodes() + split, "{pair:?} point {k}");
            } else {
                assert_eq!(passive.result.0, run.result.0, "{pair:?}: the verdict depends on who listens");
                assert_eq!(passive.result.1, run.result.1, "{pair:?}");
                assert_eq!(mapped(&passive.world.space), mapped(&run.world.space), "{pair:?}");
                assert_eq!(layout(&passive.world.fork), fork_before, "{pair:?}: the fork saw the slide");
            }
            fold_pair(&run, &mut digest);
            finish_pair(run);
        });
        finish_pair(passive);
        fail_points += counted.len() as u64;
    }
    // Obtained from the slide that enumerates with `leaves_in_range` and
    // keeps a second list of what it moved.
    assert_eq!((fail_points, digest.0), (566, 0xb7fc_c157_1c35_a3b9), "got ({fail_points}, {:#x})", digest.0);
}

// -------------------------------------------------------- range operations

/// The space whose ranges are unmapped, discarded and write-protected, THP
/// on, and its on-demand fork. By leaf node:
///
/// * node 0 — a 2 MiB block at 0..512, and node 1 the small pages at
///   512..520 of the same mapping, 0..1024: the block stays a lone block,
///   which the fork shares by its frames, and node 1 is shared;
/// * node 2 — a `MAP_SHARED` mapping at 1024..1040, shared with the fork
///   and writable in both;
/// * node 3 — nine pages at 1536..1545, of which 1538 and 1541 are swapped
///   out, shared with the fork.
fn range_world() -> Pair {
    let mut phys = PhysMemory::new(SLIDE_FRAMES, CostModel::default());
    phys.set_swap_capacity(SWAP_SLOTS);
    let (mut cycles, mut tlb, mut space) = (Cycles::new(), TlbModel::new(), AddressSpace::new());
    space.set_thp(true);
    let mut shared = VmArea::anon(Vpn(1024), 16, Prot::RW, VmaKind::Mmap);
    shared.share = Share::Shared;
    for area in [heap_vma(Vpn(0), 1024), shared, heap_vma(Vpn(1536), 9)] {
        space.mmap(area, &mut phys, &mut cycles).unwrap();
    }
    space.populate(Vpn(0), 512, &mut phys, &mut cycles).unwrap();
    for vpn in [0..4, 512..520, 1024..1028, 1536..1545].into_iter().flatten() {
        space.write(Vpn(vpn), 7000 + vpn, &mut phys, &mut cycles, &mut tlb, 1).unwrap();
    }
    for vpn in [1538, 1541] {
        let slot = phys.swap_out_page(7000 + vpn, &mut cycles).unwrap();
        space.swap_out_commit(Vpn(vpn), slot, &mut phys, &mut cycles);
    }
    let fork = AddressSpace::fork_from(&mut space, ForkMode::OnDemand, &mut phys, &mut cycles, &mut tlb, 1).unwrap();
    assert_eq!((space.huge_pages(), space.resident_pages(), space.swapped_pages()), (1, 512 + 8 + 16 + 7, 2));
    assert_eq!(space.stats.pt_subtrees_shared, 3);
    Pair { phys, cycles, tlb, space, fork }
}

#[derive(Debug, Clone, Copy)]
enum RangeOp {
    Munmap,
    Discard,
    ProtectRead,
}

/// `(operation, start, pages, THP)`: each range operation over a range that
/// cuts a block, one that covers a shared node's entries whole, one that
/// straddles a shared node, one that holds swap entries, one that reaches
/// over all of it and one with a hole — a space with THP on flushes entry
/// by entry, one with it off in one round.
const RANGES: [(RangeOp, u64, u64, bool); 19] = [
    (RangeOp::Munmap, 100, 200, true),
    (RangeOp::Discard, 100, 200, true),
    (RangeOp::ProtectRead, 100, 200, true),
    (RangeOp::Munmap, 1024, 16, true),
    (RangeOp::Discard, 1024, 16, true),
    (RangeOp::ProtectRead, 1024, 16, true),
    (RangeOp::Munmap, 1026, 5, true),
    (RangeOp::Discard, 1026, 5, true),
    (RangeOp::ProtectRead, 1026, 5, true),
    (RangeOp::Munmap, 1537, 5, true),
    (RangeOp::Discard, 1537, 5, true),
    (RangeOp::ProtectRead, 1537, 5, false),
    (RangeOp::Munmap, 1537, 5, false),
    (RangeOp::Munmap, 300, 1240, true),
    (RangeOp::Munmap, 300, 1240, false),
    (RangeOp::Discard, 300, 1240, true),
    (RangeOp::ProtectRead, 300, 1240, false),
    (RangeOp::Discard, 300, 724, true),
    (RangeOp::ProtectRead, 300, 724, true),
];

fn range_op(w: &mut Pair, (op, start, pages, thp): (RangeOp, u64, u64, bool)) -> (Result<u64, MemError>, u64) {
    charged(w, |w| {
        let Pair { phys, cycles, tlb, space, .. } = w;
        space.set_thp(thp);
        let (start, prot) = (Vpn(start), Prot::R);
        match op {
            RangeOp::Munmap => space.munmap(start, pages, phys, cycles, tlb, 2),
            RangeOp::Discard => space.discard(start, pages, phys, cycles, tlb, 2),
            RangeOp::ProtectRead => space.mprotect(start, pages, prot, cycles, phys, tlb, 2).map(|()| 0),
        }
    })
}

/// Folds what [`fold_pair`] does and what a range operation changes that a
/// slide does not: swap entries, swap slots and the flushes.
fn fold_range(run: &PairRun, d: &mut Digest) {
    fold_pair(run, d);
    let Pair { phys, tlb, space, fork, .. } = &run.world;
    [space.swapped_pages(), fork.swapped_pages(), phys.swap().used_slots()].into_iter().for_each(|w| d.word(w));
    (0..SWAP_SLOTS).for_each(|slot| d.word(phys.swap().refs(slot).unwrap_or(0) as u64));
    [tlb.shootdowns, tlb.entries_flushed, tlb.huge_entries_flushed].into_iter().for_each(|w| d.word(w));
}

#[test]
fn every_range_operation_fail_point_leaves_what_it_left_before() {
    let mut digest = Digest::new();
    let mut fail_points = 0;
    let fork_before = layout(&range_world().fork);
    for case in RANGES {
        let passive = unobserved(range_world(), |w| range_op(w, case));
        fold_range(&passive, &mut digest);
        let counted = sweep(None, range_world, |w| range_op(w, case), |run| {
            if let Some(fault) = run.fault {
                let k = fault.global_index;
                assert_eq!(run.result.0, Err(MemError::OutOfMemory), "{case:?} point {k}");
                assert_eq!(layout(&run.world.fork), fork_before, "{case:?} point {k}: the fork saw it");
            } else {
                assert_eq!(passive.result, run.result, "{case:?}");
                assert_eq!(mapped(&passive.world.space), mapped(&run.world.space), "{case:?}");
            }
            fold_range(&run, &mut digest);
            finish_pair(run);
        });
        finish_pair(passive);
        fail_points += counted.len() as u64;
    }
    // Obtained from the range operations that go entry by entry.
    assert_eq!((fail_points, digest.0), (16, 0x19db_75e8_4cf0_b48d), "got ({fail_points}, {:#x})", digest.0);
}

// ---------------------------------------------------------------- populate

/// `(start, pages, THP)` over [`range_world`]: `populate` over the holes of
/// node 1, which the fork shares, so the space unshares it first; over the
/// `MAP_SHARED` holes of node 2; over node 3, whose swap entries 1538 and
/// 1541 are swapped in; and from node 1 to node 3, which fills node 1 and
/// node 2's holes and stops with `NotMapped` at 1040, where no mapping is —
/// each with THP on and off.
const POPULATES: [(u64, u64, bool); 8] = [
    (520, 504, true),
    (520, 504, false),
    (1028, 12, true),
    (1028, 12, false),
    (1536, 9, true),
    (1536, 9, false),
    (512, 1033, true),
    (512, 1033, false),
];

/// A space with one file-backed private mapping, 700..1100 across nodes 1
/// and 2, of which 700..704 and 1030..1034 were read in, and an on-demand
/// fork of it that shares both nodes: what a populate fills with
/// `alloc_filled`, each page its stamp.
fn file_world() -> Pair {
    let mut phys = PhysMemory::new(SLIDE_FRAMES, CostModel::default());
    let (mut cycles, mut tlb, mut space) = (Cycles::new(), TlbModel::new(), AddressSpace::new());
    let backing = Backing::File { file_id: 7, page_offset: 3 };
    let file = VmArea { backing, ..VmArea::anon(Vpn(700), 400, Prot::RW, VmaKind::Data) };
    space.mmap(file, &mut phys, &mut cycles).unwrap();
    for vpn in [700..704, 1030..1034].into_iter().flatten() {
        space.read(Vpn(vpn), &mut phys, &mut cycles).unwrap();
    }
    let fork = AddressSpace::fork_from(&mut space, ForkMode::OnDemand, &mut phys, &mut cycles, &mut tlb, 1).unwrap();
    assert_eq!((space.resident_pages(), space.stats.pt_subtrees_shared), (8, 2));
    Pair { phys, cycles, tlb, space, fork }
}

/// The file mapping whole, THP on and off.
const FILE_POPULATES: [(u64, u64, bool); 2] = [(700, 400, true), (700, 400, false)];

/// Populates a range of `w`'s space, keeping in `counted` what the call
/// added to `mem.frame_alloc` and `mem.fault.demand_fill`.
fn populate(w: &mut Pair, (start, pages, thp): (u64, u64, bool), counted: &Cell<[u64; 2]>) -> (Result<u64, MemError>, u64) {
    let read = || {
        let now = metrics::snapshot();
        [now.counter("mem.frame_alloc"), now.counter("mem.fault.demand_fill")]
    };
    let before = read();
    let out = charged(w, |w| {
        w.space.set_thp(thp);
        w.space.populate(Vpn(start), pages, &mut w.phys, &mut w.cycles).map(|()| 0)
    });
    let after = read();
    counted.set([after[0] - before[0], after[1] - before[1]]);
    out
}

/// Folds what [`fold_range`] does, the counters a populate moves and what
/// every page of the space holds.
fn fold_populate(run: &PairRun, counted: [u64; 2], d: &mut Digest) {
    fold_range(run, d);
    counted.into_iter().for_each(|w| d.word(w));
    let Pair { phys, space, .. } = &run.world;
    for (vpn, _) in mapped(space) {
        d.word(space.observe(Vpn(vpn), phys).unwrap());
    }
}

/// Sweeps `populate` over each case on the worlds `build` makes, folding
/// every run into `digest`; returns the number of fail points.
fn populate_points(build: fn() -> Pair, cases: &[(u64, u64, bool)], digest: &mut Digest) -> u64 {
    let untouched = build();
    let (before, fork_before) = (mapped(&untouched.space), layout(&untouched.fork));
    let held: Vec<u64> = before.iter().map(|&(vpn, _)| vpn).collect();
    let mut fail_points = 0;
    for &case in cases {
        let (start, pages, _) = case;
        // The pages the populate has to fill, in the order it fills them.
        let holes: Vec<u64> = (start..start + pages)
            .filter(|&vpn| untouched.space.vma_at(Vpn(vpn)).is_some() && !held.contains(&vpn))
            .collect();
        let counted = Cell::new([0; 2]);
        let passive = unobserved(build(), |w| populate(w, case, &counted));
        let passive_counted = counted.get();
        fold_populate(&passive, passive_counted, digest);
        let points = sweep(None, build, |w| populate(w, case, &counted), |run| {
            let filled: Vec<u64> = mapped(&run.world.space)
                .into_iter()
                .map(|(vpn, _)| vpn)
                .filter(|vpn| !held.contains(vpn))
                .collect();
            if let Some(fault) = run.fault {
                let k = fault.global_index;
                // A swap-in's device error is an I/O error, every other an
                // allocation's.
                let refusal = if fault.site == FaultSite::SwapIn { MemError::SwapIo } else { MemError::OutOfMemory };
                assert_eq!(run.result.0, Err(refusal), "{case:?} point {k}");
                assert_eq!(run.trace.len() as u64, k + 1, "{case:?} point {k}: the populate went on");
                // The pages before the refused one stay filled, and no other.
                assert_eq!(filled[..], holes[..filled.len()], "{case:?} point {k}");
                assert_eq!(layout(&run.world.fork), fork_before, "{case:?} point {k}: the fork saw it");
            } else {
                assert_eq!(passive.result, run.result, "{case:?}: the verdict depends on who listens");
                assert_eq!(passive_counted, counted.get(), "{case:?}");
                assert_eq!(mapped(&passive.world.space), mapped(&run.world.space), "{case:?}");
            }
            fold_populate(&run, counted.get(), digest);
            finish_pair(run);
        });
        finish_pair(passive);
        fail_points += points.len() as u64;
    }
    fail_points
}

#[test]
fn every_populate_fail_point_leaves_what_it_left_before() {
    let mut digest = Digest::new();
    let fail_points = populate_points(range_world, &POPULATES, &mut digest) + populate_points(file_world, &FILE_POPULATES, &mut digest);
    // Obtained from the populate that demand-fills page by page.
    assert_eq!((fail_points, digest.0), (5618, 0x6860_fcb2_8fba_773d), "got ({fail_points}, {:#x})", digest.0);
}
