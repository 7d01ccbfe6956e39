//! The buddy allocator against a reference model, frame for frame.
//!
//! `results/` is byte-identical across host-side rewrites only as long as
//! every allocation hands out the *same* frame, so which block comes back is
//! part of the allocator's contract: the lowest-addressed free block of the
//! smallest order that has one. [`Model`] is the `BTreeSet`-per-order
//! allocator that contract was first written as, kept here as the oracle;
//! seeded scripts drive it beside [`BuddyAllocator`] and compare every
//! returned frame, every error variant, `free_frames()` and
//! `largest_free_order()` after each step — on totals that are not powers
//! of two and bases that are not zero, where block indices stop being
//! frame numbers shifted down.
//!
//! A second arm holds a one-cell [`PhysMemory`] to the same model: however
//! the cell draws its frames from the pool, every frame it hands out —
//! to `alloc_zeroed`, and to the small and huge pages a `populate` maps,
//! read back with `AddressSpace::translate` — is the one the model's
//! `alloc(0)` or `alloc_run(9)` gives, and `free_frames()`, `used_frames()`
//! and `pressure()` agree after every step, while frames go back through
//! `dec_ref`, `unpin` and the batched frees of `munmap` and `destroy`.
//! Among them is `cow_touch`'s request, fork's deferred cost: a `fork(Cow)`
//! of a populated space, writes to a random subset of the child's pages —
//! each copy a small frame — and the child's teardown, which gives back
//! exactly the frames its writes took last, or, in a variant where the
//! parent unmaps a page the child still maps, those and one older frame.
//! And a `fork(Cow)` of a space one of whose frames a stray reference drop
//! freed — first in its run of consecutive frames, inside it, or last —
//! is refused there and moves no frame's count.
//!
//! A third arm puts two [`PhysMemory::new_cell`] cells over one
//! [`SharedFramePool`] and steps them in turn on one thread: the same
//! allocations, populates, pins and frees, and `drain`. Which frame a cell
//! gets there depends on what the other did, so the arm holds the machine
//! to what must be true whatever the frames: after every step the cells'
//! drawn frames and the pool's free ones add up to the total, no frame is
//! handed out by both cells, neither cell holds back more than
//! 3 × [`CELL_BATCH`] frames it holds no reference on, and an allocation
//! is refused only when the pool is dry and the cell holds nothing back.

use fpr_mem::address_space::heap_vma;
use fpr_mem::ForkMode;
use fpr_mem::buddy::{BuddyAllocator, MAX_ORDER};
use fpr_mem::error::{MemError, MemResult};
use fpr_mem::{AddressSpace, CostModel, Cycles, Pfn, PhysMemory, PressureLevel, SharedFramePool, TlbModel, Vpn, HUGE_PAGES};
use fpr_rng::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The reference: one ordered set of free block bases per order.
struct Model {
    base: u64,
    total: u64,
    free_lists: Vec<BTreeSet<u64>>,
    /// Per frame (indexed from `base`): order + 1 where a live allocation
    /// starts, 0 everywhere else.
    allocated: Vec<u8>,
    free_frames: u64,
}

impl Model {
    fn new(base: Pfn, total: u64) -> Self {
        let mut a = Model {
            base: base.0,
            total,
            free_lists: vec![BTreeSet::new(); MAX_ORDER + 1],
            allocated: vec![0; total as usize],
            free_frames: total,
        };
        let mut start = base.0;
        let end = base.0 + total;
        while start < end {
            // Largest order that is both aligned at `start` and fits.
            let align_order = if start == 0 {
                MAX_ORDER
            } else {
                start.trailing_zeros() as usize
            };
            let mut order = align_order.min(MAX_ORDER);
            while (1u64 << order) > end - start {
                order -= 1;
            }
            a.free_lists[order].insert(start);
            start += 1u64 << order;
        }
        a
    }

    fn alloc(&mut self, order: usize) -> MemResult<Pfn> {
        if order > MAX_ORDER {
            return Err(MemError::Fragmented);
        }
        // Find the smallest order with a free block.
        let mut found = None;
        for o in order..=MAX_ORDER {
            if let Some(&blk) = self.free_lists[o].iter().next() {
                found = Some((o, blk));
                break;
            }
        }
        let (mut o, blk) = match found {
            Some(x) => x,
            None => {
                return Err(if self.free_frames >= (1u64 << order) {
                    MemError::Fragmented
                } else {
                    MemError::OutOfMemory
                })
            }
        };
        self.free_lists[o].remove(&blk);
        // Split down to the requested order, returning the upper halves.
        while o > order {
            o -= 1;
            let upper = blk + (1u64 << o);
            self.free_lists[o].insert(upper);
        }
        self.allocated[(blk - self.base) as usize] = order as u8 + 1;
        self.free_frames -= 1u64 << order;
        Ok(Pfn(blk))
    }

    fn alloc_run(&mut self, order: usize) -> MemResult<Vec<Pfn>> {
        let base = self.alloc(order)?;
        let n = 1u64 << order;
        let first = (base.0 - self.base) as usize;
        self.allocated[first..first + n as usize].fill(1);
        Ok((0..n).map(|i| Pfn(base.0 + i)).collect())
    }

    fn free(&mut self, pfn: Pfn) {
        let mut blk = pfn.0;
        let slot = blk
            .checked_sub(self.base)
            .and_then(|i| self.allocated.get_mut(i as usize))
            .filter(|slot| **slot != 0)
            .unwrap_or_else(|| panic!("buddy free of unallocated block {}", blk));
        let mut order = (*slot - 1) as usize;
        *slot = 0;
        self.free_frames += 1u64 << order;
        // Coalesce upward while the buddy is free.
        while order < MAX_ORDER {
            let buddy = blk ^ (1u64 << order);
            if buddy < self.base || buddy + (1u64 << order) > self.base + self.total {
                break;
            }
            if !self.free_lists[order].remove(&buddy) {
                break;
            }
            blk = blk.min(buddy);
            order += 1;
        }
        self.free_lists[order].insert(blk);
    }

    fn largest_free_order(&self) -> Option<usize> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free_lists[o].is_empty())
    }
}

/// Both allocators and the handles the script may free.
struct Pair {
    real: BuddyAllocator,
    model: Model,
    /// Bases of live `alloc` blocks (freed whole).
    blocks: Vec<Pfn>,
    /// Live frames of `alloc_run` runs (freed one at a time, in any order).
    singles: Vec<Pfn>,
    /// Refusals seen so far: `[OutOfMemory, Fragmented]`.
    refused: [u64; 2],
}

impl Pair {
    fn new(base: u64, total: u64) -> Pair {
        Pair {
            real: BuddyAllocator::new(Pfn(base), total),
            model: Model::new(Pfn(base), total),
            blocks: Vec::new(),
            singles: Vec::new(),
            refused: [0; 2],
        }
    }

    fn alloc(&mut self, order: usize, what: &str) {
        let (r, m) = (self.real.alloc(order), self.model.alloc(order));
        assert_eq!(r, m, "{what}: alloc({order})");
        match r {
            Ok(p) => self.blocks.push(p),
            Err(e) => self.refused[usize::from(e == MemError::Fragmented)] += 1,
        }
    }

    fn alloc_run(&mut self, order: usize, what: &str) {
        let (r, m) = (self.real.alloc_run(order), self.model.alloc_run(order));
        assert_eq!(r, m, "{what}: alloc_run({order})");
        if let Ok(run) = r {
            self.singles.extend(run);
        }
    }

    fn free(&mut self, pfn: Pfn) {
        self.real.free(pfn);
        self.model.free(pfn);
    }

    fn check(&self, what: &str) {
        assert_eq!(
            self.real.free_frames(),
            self.model.free_frames,
            "{what}: free_frames"
        );
        assert_eq!(
            self.real.largest_free_order(),
            self.model.largest_free_order(),
            "{what}: largest_free_order"
        );
    }
}

/// One seeded script on `total` frames from `base`: phases that lean towards
/// allocating until the region runs dry, then towards freeing, so the free
/// lists pass through full, fragmented and empty more than once.
fn run_script(base: u64, total: u64, seed: u64, steps: u64) -> [u64; 2] {
    let mut rng = Rng::seed_from_u64(seed);
    let mut p = Pair::new(base, total);
    assert_eq!(p.real.total_frames(), total);
    p.check(&format!("base {base} total {total} seed {seed:#x}: fresh"));
    let phase_len = (steps / 6).max(1);
    for step in 0..steps {
        let what = format!("base {base} total {total} seed {seed:#x} step {step}");
        let filling = (step / phase_len) & 1 == 0;
        let alloc = rng.gen_bool(if filling { 0.75 } else { 0.25 });
        if alloc {
            match rng.gen_below(16) {
                // An order the region (or the allocator) cannot serve:
                // `Fragmented` against `OutOfMemory` must agree too.
                0 => p.alloc(rng.gen_range(7, MAX_ORDER as u64 + 2) as usize, &what),
                1..=4 => p.alloc_run(rng.gen_below(7) as usize, &what),
                _ => p.alloc(rng.gen_below(7) as usize, &what),
            }
        } else if !p.singles.is_empty() && (p.blocks.is_empty() || rng.gen_bool(0.6)) {
            let i = rng.gen_index(p.singles.len());
            let pfn = p.singles.swap_remove(i);
            p.free(pfn);
        } else if !p.blocks.is_empty() {
            let i = rng.gen_index(p.blocks.len());
            let pfn = p.blocks.swap_remove(i);
            p.free(pfn);
        }
        p.check(&what);
    }
    // Everything back, in a seeded order: the region must tile as at boot.
    let mut rest: Vec<Pfn> = p.blocks.drain(..).chain(p.singles.drain(..)).collect();
    rng.shuffle(&mut rest);
    for pfn in rest {
        p.free(pfn);
    }
    let what = format!("base {base} total {total} seed {seed:#x}: drained");
    p.check(&what);
    assert_eq!(p.real.free_frames(), total, "{what}");
    let fresh = Model::new(Pfn(base), total);
    assert_eq!(
        p.model.free_lists, fresh.free_lists,
        "{what}: the model itself re-tiles"
    );
    // The boot tiling hands frames out in the same order a second time.
    for _ in 0..total.min(300) {
        p.alloc(0, &what);
    }
    p.refused
}

const TOTALS: [u64; 3] = [100, 513, 40_000];
const BASES: [u64; 3] = [0, 1_000, 4_096 + 3];

#[test]
fn every_frame_and_error_matches_the_btreeset_model() {
    let mut refused = [0u64; 2];
    for (bi, &base) in BASES.iter().enumerate() {
        for (ti, &total) in TOTALS.iter().enumerate() {
            // Long enough that every region runs dry and refuses in both
            // ways (on the big one the occasional large order sees to it).
            let steps = (total / 4).clamp(600, 6_000);
            for case in 0..4u64 {
                let seed = 0xB0DD_0000 + ((bi as u64) << 12) + ((ti as u64) << 8) + case;
                let r = run_script(base, total, seed, steps);
                refused[0] += r[0];
                refused[1] += r[1];
            }
        }
    }
    assert!(
        refused[0] > 100 && refused[1] > 100,
        "the scripts must meet both refusals often: {refused:?}"
    );
}

/// Exhaustion by single frames, then release in the opposite order: the
/// longest coalescing chains, on a region whose first and last blocks are
/// small because neither end is aligned.
#[test]
fn exhaust_and_release_on_unaligned_ends() {
    for &(base, total) in &[(4_099u64, 513u64), (1_000, 100), (3, 40_000)] {
        let what = format!("base {base} total {total}");
        let mut p = Pair::new(base, total);
        for _ in 0..total {
            p.alloc(0, &what);
        }
        assert_eq!(p.blocks.len() as u64, total, "{what}: every frame served");
        p.alloc(0, &what);
        p.alloc(3, &what);
        p.check(&what);
        for (i, pfn) in std::mem::take(&mut p.blocks).into_iter().rev().enumerate() {
            p.free(pfn);
            if i % 7 == 1 {
                p.alloc(1, &what);
                p.alloc_run(2, &what);
            }
            p.check(&what);
        }
    }
}

#[test]
#[should_panic(expected = "unallocated block")]
fn freeing_a_frame_below_a_nonzero_base_panics() {
    let mut b = BuddyAllocator::new(Pfn(1_000), 64);
    b.free(Pfn(999));
}

#[test]
#[should_panic(expected = "unallocated block")]
fn freeing_the_interior_of_a_block_panics() {
    let mut b = BuddyAllocator::new(Pfn(1_000), 64);
    let p = b.alloc(3).unwrap();
    b.free(Pfn(p.0 + 1));
}

/// The order of a 2 MiB block.
const HUGE_ORDER: usize = HUGE_PAGES.trailing_zeros() as usize;

/// Where every script's space maps its heap: a huge-page boundary.
const HEAP: u64 = 64 * HUGE_PAGES;

/// What the `PhysMemory` scripts must have met, summed over all of them.
#[derive(Debug, Default)]
struct Seen {
    /// Runs of more than 512 small allocations with no frame freed between.
    long_runs: u64,
    /// A frame freed part-way through an allocation run of more than 512.
    mid_run_frees: u64,
    /// A small allocation when no free block was 2 MiB or smaller.
    above_huge: u64,
    /// A huge block taken right after a small allocation and right before
    /// the next one.
    thp_between_small: u64,
    /// A small allocation refused because no frame was free.
    exhausted: u64,
    /// Teardowns of a COW child that freed exactly the last frames handed
    /// out, with nothing freed and no huge block taken since, all within
    /// one aligned 2 MiB window: the tail of the block they came from.
    tail_teardowns: u64,
    /// Teardowns of a COW child that freed a frame older than those.
    older_teardowns: u64,
}

/// A one-cell [`PhysMemory`] beside the [`Model`], with a reference count
/// per frame the model handed out, so it knows which drop frees a frame.
struct Machine {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    model: Model,
    refs: BTreeMap<u64, u32>,
    /// Frames from `alloc_zeroed`, one reference each held by the script.
    loose: Vec<Pfn>,
    /// One entry per pin the script holds.
    pins: Vec<Pfn>,
    /// Spaces the script populated and the pages of their heap.
    spaces: Vec<(AddressSpace, u64)>,
    /// Small allocations since a frame last went back.
    streak: u64,
    /// The last frame the pool saw go out was a small allocation's.
    after_small: bool,
    /// A huge block went out right after a small allocation.
    huge_after_small: bool,
    /// The small frames handed out since a frame last went back or a huge
    /// block went out, in order.
    recent: Vec<u64>,
    seen: Seen,
}

impl Machine {
    fn new(total: u64) -> Machine {
        Machine {
            phys: PhysMemory::new(total, CostModel::default()),
            cycles: Cycles::new(),
            tlb: TlbModel::new(),
            model: Model::new(Pfn(0), total),
            refs: BTreeMap::new(),
            loose: Vec::new(),
            pins: Vec::new(),
            spaces: Vec::new(),
            streak: 0,
            after_small: false,
            huge_after_small: false,
            recent: Vec::new(),
            seen: Seen::default(),
        }
    }

    /// The model's next small frame against `got`, what the cell handed out.
    fn small(&mut self, got: MemResult<Pfn>, what: &str) -> MemResult<Pfn> {
        if self.model.free_lists[..=HUGE_ORDER].iter().all(BTreeSet::is_empty) && self.model.free_frames > 0 {
            self.seen.above_huge += 1;
        }
        let want = self.model.alloc(0);
        assert_eq!(got, want, "{what}: a small frame");
        match want {
            Ok(pfn) => {
                self.refs.insert(pfn.0, 1);
                self.recent.push(pfn.0);
                self.streak += 1;
                self.seen.long_runs += u64::from(self.streak == 513);
                self.seen.thp_between_small += u64::from(self.huge_after_small);
                self.after_small = true;
                self.huge_after_small = false;
            }
            Err(e) => {
                assert_eq!(e, MemError::OutOfMemory, "{what}");
                self.seen.exhausted += 1;
            }
        }
        want
    }

    /// The model's next huge block, if it has one: the head frame of the
    /// run a cell that tried to map one must have mapped.
    fn huge(&mut self) -> Option<Pfn> {
        let run = self.model.alloc_run(HUGE_ORDER).ok()?;
        self.refs.extend(run.iter().map(|pfn| (pfn.0, 1)));
        self.huge_after_small = self.after_small;
        self.after_small = false;
        self.recent.clear();
        Some(run[0])
    }

    /// Drops one reference the model holds on each of `frames`, freeing
    /// those that reach zero; returns how many did.
    fn drop_refs(&mut self, frames: impl IntoIterator<Item = Pfn>) -> u64 {
        let mut freed = 0;
        for pfn in frames {
            let n = self.refs.get_mut(&pfn.0).expect("a frame the model handed out");
            *n -= 1;
            if *n == 0 {
                self.refs.remove(&pfn.0);
                self.model.free(pfn);
                freed += 1;
            }
        }
        if freed > 0 {
            self.streak = 0;
            (self.after_small, self.huge_after_small) = (false, false);
            self.recent.clear();
        }
        freed
    }

    fn check(&self, what: &str) {
        let free = self.model.free_frames;
        assert_eq!(self.phys.free_frames(), free, "{what}: free_frames");
        assert_eq!(self.phys.used_frames(), self.model.total - free, "{what}: used_frames");
        let w = self.phys.watermarks();
        let level = match free {
            f if f >= w.high => PressureLevel::None,
            f if f >= w.low => PressureLevel::Low,
            f if f >= w.min => PressureLevel::High,
            _ => PressureLevel::Critical,
        };
        assert_eq!(self.phys.pressure(), level, "{what}: pressure");
    }

    /// `n` frames through `alloc_zeroed`, and at `free_at` allocations in,
    /// one loose frame dropped; stops at the first refusal.
    fn alloc_run(&mut self, n: u64, free_at: Option<u64>, rng: &mut Rng, what: &str) {
        for k in 0..n {
            if free_at == Some(k) && !self.loose.is_empty() {
                let freed = self.dec_ref(rng, what);
                self.seen.mid_run_frees += u64::from(freed && n > 512);
            }
            let got = self.phys.alloc_zeroed(&mut self.cycles);
            let Ok(pfn) = self.small(got, what) else { return };
            self.loose.push(pfn);
            self.check(what);
        }
    }

    /// Drops a random loose frame; `true` if that freed it.
    fn dec_ref(&mut self, rng: &mut Rng, what: &str) -> bool {
        let pfn = self.loose.swap_remove(rng.gen_index(self.loose.len()));
        let freed = self.phys.dec_ref(pfn, &mut self.cycles);
        assert_eq!(freed, Ok(self.drop_refs([pfn]) == 1), "{what}: dec_ref");
        freed == Ok(true)
    }

    /// A new space with a heap of `pages`, populated with huge pages or
    /// without: frame by frame, what the model hands out.
    fn map(&mut self, pages: u64, thp: bool, what: &str) {
        let mut space = AddressSpace::new();
        space.set_thp(thp);
        space.mmap(heap_vma(Vpn(HEAP), pages), &mut self.phys, &mut self.cycles).unwrap();
        let populated = space.populate(Vpn(HEAP), pages, &mut self.phys, &mut self.cycles);
        let pfn = |k: u64| space.translate(Vpn(HEAP + k)).map(|pte| pte.pfn);
        let mut k = 0;
        while k < pages {
            if thp && k % HUGE_PAGES == 0 && pages - k >= HUGE_PAGES {
                if let Some(head) = self.huge() {
                    for j in 0..HUGE_PAGES {
                        assert_eq!(pfn(k + j), Some(Pfn(head.0 + j)), "{what}: page {j} of a huge block");
                    }
                    k += HUGE_PAGES;
                    continue;
                }
            }
            if self.small(pfn(k).ok_or(MemError::OutOfMemory), what).is_err() {
                assert_eq!(populated, Err(MemError::OutOfMemory), "{what}: populate");
                break;
            }
            k += 1;
        }
        if k == pages {
            assert_eq!(populated, Ok(()), "{what}: populate");
        }
        self.spaces.push((space, pages));
    }

    /// The frames of pages `range` of `space`'s heap that are resident.
    fn resident(space: &AddressSpace, range: std::ops::Range<u64>) -> Vec<Pfn> {
        range.filter_map(|k| space.translate(Vpn(HEAP + k)).map(|pte| pte.pfn)).collect()
    }

    fn munmap(&mut self, rng: &mut Rng, what: &str) {
        let i = rng.gen_index(self.spaces.len());
        let pages = self.spaces[i].1;
        let start = rng.gen_below(pages);
        let len = rng.gen_range(1, pages - start + 1);
        let gone = Self::resident(&self.spaces[i].0, start..start + len);
        let Machine { phys, cycles, tlb, spaces, .. } = self;
        let unmapped = spaces[i].0.munmap(Vpn(HEAP + start), len, phys, cycles, tlb, 1);
        assert!(unmapped.is_ok(), "{what}: munmap {unmapped:?}");
        self.drop_refs(gone);
    }

    fn destroy(&mut self, i: usize) {
        let (mut space, pages) = self.spaces.swap_remove(i);
        let gone = Self::resident(&space, 0..pages);
        space.destroy(&mut self.phys, &mut self.cycles);
        self.drop_refs(gone);
    }

    /// `cow_touch`'s request on space `i`, which holds no huge block: a
    /// `fork(Cow)`, a write to each of a random subset of the child's pages
    /// in random order — a copy of a shared frame, or a demand-zero fill
    /// where nothing was resident — and the child's teardown. With `older`,
    /// the parent first unmaps a resident page the child did not write, so
    /// that the teardown frees that frame too.
    fn cow_touch(&mut self, i: usize, older: bool, rng: &mut Rng, what: &str) {
        let Machine { phys, cycles, tlb, spaces, .. } = self;
        let (parent, pages) = &mut spaces[i];
        let pages = *pages;
        let shared = Self::resident(parent, 0..pages);
        let forked = AddressSpace::fork_from(parent, ForkMode::Cow, phys, cycles, tlb, 1);
        let mut child = forked.unwrap_or_else(|e| panic!("{what}: fork(Cow) {e:?}"));
        child.set_thp(false);
        for pfn in &shared {
            *self.refs.get_mut(&pfn.0).expect("held") += 1;
        }
        let mut touched: Vec<u64> = (0..pages).filter(|_| rng.gen_bool(0.4)).collect();
        rng.shuffle(&mut touched);
        for &k in &touched {
            let vpn = Vpn(HEAP + k);
            if child.vma_at(vpn).is_none() {
                continue;
            }
            let before = child.translate(vpn).map(|pte| pte.pfn);
            let wrote = child.write(vpn, k | 1, &mut self.phys, &mut self.cycles, &mut self.tlb, 1);
            let got = wrote.map(|_| child.translate(vpn).expect("just written").pfn);
            if self.small(got, what).is_err() {
                break;
            }
            self.drop_refs(before);
        }
        if older {
            let untouched = (0..pages).filter(|k| !touched.contains(k));
            let parent = &self.spaces[i].0;
            let old = untouched.filter_map(|k| Some((k, parent.translate(Vpn(HEAP + k))?.pfn))).next();
            if let Some((k, pfn)) = old {
                let Machine { phys, cycles, tlb, spaces, .. } = self;
                let unmapped = spaces[i].0.munmap(Vpn(HEAP + k), 1, phys, cycles, tlb, 1);
                assert!(unmapped.is_ok(), "{what}: munmap {unmapped:?}");
                assert_eq!(self.drop_refs([pfn]), 0, "{what}: the child still maps it");
            }
        }
        self.check(what);
        let gone = Self::resident(&child, 0..pages);
        let freed: BTreeSet<u64> = gone.iter().map(|pfn| pfn.0).filter(|pfn| self.refs[pfn] == 1).collect();
        if let Some(&first) = freed.first() {
            let last = &self.recent[self.recent.len().saturating_sub(freed.len())..];
            let one_window = last.iter().all(|pfn| pfn / HUGE_PAGES == first / HUGE_PAGES);
            if last.len() == freed.len() && one_window && last.iter().all(|pfn| freed.contains(pfn)) {
                self.seen.tail_teardowns += 1;
            } else if freed.iter().any(|pfn| !self.recent.contains(pfn)) {
                self.seen.older_teardowns += 1;
            }
        }
        child.destroy(&mut self.phys, &mut self.cycles);
        assert_eq!(self.drop_refs(gone), freed.len() as u64, "{what}: frames the teardown freed");
    }

    /// Drops a reference space `i` never took on the frame of its page
    /// `k`, freeing the frame as a corrupted count would. A `fork(Cow)`
    /// must then be refused at that frame and move no count: the frames
    /// before it in its run are not left retained, nor is it left held.
    /// Then frames go out, each the model's, until the stray one does,
    /// and the space holds it again.
    fn fork_over_a_stray_drop(&mut self, i: usize, k: u64, what: &str) {
        let Machine { phys, cycles, tlb, spaces, .. } = self;
        let (parent, pages) = &mut spaces[i];
        let frames = Self::resident(parent, 0..*pages);
        let stray = parent.translate(Vpn(HEAP + k)).expect("a resident page").pfn;
        assert_eq!(phys.dec_ref(stray, cycles), Ok(true), "{what}: the stray drop frees the frame");
        let counts = |phys: &PhysMemory| frames.iter().map(|&pfn| phys.refs(pfn)).collect::<Vec<_>>();
        let before = counts(phys);
        let forked = AddressSpace::fork_from(parent, ForkMode::Cow, phys, cycles, tlb, 1);
        assert_eq!(forked.err(), Some(MemError::NotMapped), "{what}: fork(Cow) over a frame not held");
        assert_eq!(counts(phys), before, "{what}: the counts after the refused fork");
        self.drop_refs([stray]);
        self.check(what);
        loop {
            let got = self.phys.alloc_zeroed(&mut self.cycles);
            match self.small(got, what) {
                Ok(pfn) if pfn == stray => break,
                Ok(pfn) => self.loose.push(pfn),
                Err(e) => panic!("{what}: {e:?} with the stray frame free"),
            }
        }
        self.check(what);
    }

    /// Pins a random frame the script holds, loose or mapped.
    fn pin(&mut self, rng: &mut Rng, what: &str) {
        let pfn = if !self.spaces.is_empty() && (self.loose.is_empty() || rng.gen_bool(0.5)) {
            let (space, pages) = &self.spaces[rng.gen_index(self.spaces.len())];
            match space.translate(Vpn(HEAP + rng.gen_below(*pages))) {
                Some(pte) => pte.pfn,
                None => return,
            }
        } else if !self.loose.is_empty() {
            self.loose[rng.gen_index(self.loose.len())]
        } else {
            return;
        };
        assert_eq!(self.phys.pin(pfn), Ok(()), "{what}: pin");
        *self.refs.get_mut(&pfn.0).expect("held") += 1;
        self.pins.push(pfn);
    }

    fn unpin(&mut self, i: usize, what: &str) {
        let pfn = self.pins.swap_remove(i);
        let freed = self.phys.unpin(pfn, &mut self.cycles);
        assert_eq!(freed, Ok(self.drop_refs([pfn]) == 1), "{what}: unpin");
    }
}

/// One seeded script on a one-cell machine of `total` frames, in phases
/// that lean towards allocating and then towards freeing, as
/// [`run_script`]'s do.
fn run_phys_script(total: u64, seed: u64, steps: u64) -> Seen {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Machine::new(total);
    m.check(&format!("total {total} seed {seed:#x}: fresh"));
    let phase_len = (steps / 6).max(1);
    for step in 0..steps {
        let what = format!("total {total} seed {seed:#x} step {step}");
        let filling = (step / phase_len) & 1 == 0;
        if rng.gen_bool(if filling { 0.7 } else { 0.2 }) {
            match rng.gen_below(8) {
                0..=2 => {
                    let pages = match rng.gen_below(3) {
                        0 => rng.gen_range(1, 64),
                        1 => HUGE_PAGES * rng.gen_range(1, 3) + rng.gen_below(40),
                        _ => rng.gen_range(HUGE_PAGES / 2, 3 * HUGE_PAGES),
                    };
                    m.map(pages, rng.gen_bool(0.6), &what);
                }
                3 if rng.gen_bool(0.5) => {
                    let plain = (0..m.spaces.len()).filter(|&i| m.spaces[i].0.huge_pages() == 0);
                    let plain: Vec<usize> = plain.collect();
                    if !plain.is_empty() {
                        m.cow_touch(plain[rng.gen_index(plain.len())], rng.gen_bool(0.3), &mut rng, &what);
                    }
                }
                3 => {
                    let n = rng.gen_range(513, 1_400);
                    let free_at = rng.gen_bool(0.5).then(|| rng.gen_range(1, n));
                    m.alloc_run(n, free_at, &mut rng, &what);
                }
                _ => {
                    let n = rng.gen_range(1, 48);
                    let free_at = rng.gen_bool(0.2).then(|| rng.gen_range(1, n + 1));
                    m.alloc_run(n, free_at, &mut rng, &what);
                }
            }
        } else {
            match rng.gen_below(10) {
                0..=2 if !m.loose.is_empty() => {
                    for _ in 0..rng.gen_range(1, 400).min(m.loose.len() as u64) {
                        m.dec_ref(&mut rng, &what);
                    }
                }
                3 => m.pin(&mut rng, &what),
                4 if !m.pins.is_empty() => m.unpin(rng.gen_index(m.pins.len()), &what),
                5..=6 if !m.spaces.is_empty() => m.munmap(&mut rng, &what),
                7..=9 if !m.spaces.is_empty() => m.destroy(rng.gen_index(m.spaces.len())),
                _ => {}
            }
        }
        m.check(&what);
    }
    // Everything back: the machine must be as free as at boot.
    while !m.spaces.is_empty() {
        m.destroy(0);
    }
    while !m.loose.is_empty() {
        m.dec_ref(&mut rng, "drain");
    }
    while !m.pins.is_empty() {
        m.unpin(0, "drain");
    }
    let what = format!("total {total} seed {seed:#x}: drained");
    m.check(&what);
    assert_eq!(m.phys.free_frames(), total, "{what}");
    assert!(m.refs.is_empty(), "{what}");
    m.seen
}

#[test]
fn a_one_cell_phys_memory_hands_out_the_models_frames() {
    let mut seen = Seen::default();
    for (ti, &total) in [2_561u64, 3_072, 6_000].iter().enumerate() {
        for case in 0..4u64 {
            let s = run_phys_script(total, 0x9E75_0000 + ((ti as u64) << 8) + case, 320);
            seen.long_runs += s.long_runs;
            seen.mid_run_frees += s.mid_run_frees;
            seen.above_huge += s.above_huge;
            seen.thp_between_small += s.thp_between_small;
            seen.exhausted += s.exhausted;
            seen.tail_teardowns += s.tail_teardowns;
            seen.older_teardowns += s.older_teardowns;
        }
    }
    let Seen { long_runs, mid_run_frees, above_huge, thp_between_small, exhausted, tail_teardowns, older_teardowns } = seen;
    assert!(
        long_runs > 20 && mid_run_frees > 10 && above_huge > 10 && thp_between_small > 10 && exhausted > 10,
        "the scripts must meet every case the reservation has: {seen:?}"
    );
    assert!(
        tail_teardowns > 0 && older_teardowns > 0,
        "no COW child's teardown freed exactly the tail of the frames handed out, or none freed an older \
         frame with them: {seen:?}"
    );
    println!("{seen:?}");
}

#[test]
fn a_cow_fork_over_a_frame_no_longer_held_is_refused_and_moves_no_count() {
    // Two leaf nodes of consecutive frames: the stray frame first in its
    // run, inside it, last in it, and last in the space.
    let mut rng = Rng::seed_from_u64(0x57_42A7);
    for k in [0, 300, 511, 699] {
        let what = format!("a stray drop at page {k}");
        let mut m = Machine::new(3_072);
        m.map(700, false, &what);
        m.fork_over_a_stray_drop(0, k, &what);
        m.destroy(0);
        while !m.loose.is_empty() {
            m.dec_ref(&mut rng, &what);
        }
        m.check(&what);
        assert_eq!(m.phys.free_frames(), 3_072, "{what}: drained");
        assert!(m.refs.is_empty(), "{what}: drained");
    }
}

/// The unit a shared cell's private frames are bounded in: what a cell of
/// a machine of several may hold back — frames it freed and keeps for
/// itself, and frames of the pool it has reserved — stays within three of
/// it.
const CELL_BATCH: u64 = 64;

/// What the two-cell scripts must have met, summed over all of them.
#[derive(Debug, Default)]
struct SharedSeen {
    /// Small allocations refused, the pool and the cell both dry.
    exhausted: u64,
    /// Frees after which the cell drew fewer frames: what it kept for
    /// itself passed the limit and part of it went back to the pool.
    drained: u64,
    /// Small allocations that handed out a frame the cell itself had freed
    /// while the pool's free count stayed where it was: a frame reused
    /// without the pool.
    reused: u64,
}

/// One cell of a two-cell machine and what the script holds of it.
struct Side {
    phys: PhysMemory,
    /// A reference count per frame the cell handed out that the script
    /// still holds.
    refs: BTreeMap<u64, u32>,
    /// Frames from `alloc_zeroed`, one reference each held by the script.
    loose: Vec<Pfn>,
    /// One entry per pin the script holds.
    pins: Vec<Pfn>,
    /// Spaces the script populated and the pages of their heap.
    spaces: Vec<(AddressSpace, u64)>,
    /// Frames the cell freed since frames last left it for the pool.
    freed: BTreeSet<u64>,
}

impl Side {
    /// Frames the cell draws from the pool but holds no reference on.
    fn held_back(&self) -> u64 {
        self.phys.drawn_frames() - self.phys.used_frames()
    }
}

/// Two [`PhysMemory::new_cell`] cells over one [`SharedFramePool`], stepped
/// alternately on one thread.
struct TwoCells {
    pool: Arc<SharedFramePool>,
    cells: [Side; 2],
    cycles: Cycles,
    tlb: TlbModel,
    seen: SharedSeen,
}

impl TwoCells {
    fn new(total: u64) -> TwoCells {
        let pool = Arc::new(SharedFramePool::new(total));
        let side = || Side {
            phys: PhysMemory::new_cell(Arc::clone(&pool), CostModel::default()),
            refs: BTreeMap::new(),
            loose: Vec::new(),
            pins: Vec::new(),
            spaces: Vec::new(),
            freed: BTreeSet::new(),
        };
        TwoCells {
            cells: [side(), side()],
            pool,
            cycles: Cycles::new(),
            tlb: TlbModel::new(),
            seen: SharedSeen::default(),
        }
    }

    /// Records `pfn`, just handed out by cell `i`: a frame neither cell
    /// holds.
    fn take(&mut self, i: usize, pfn: Pfn, what: &str) {
        assert!(
            self.cells.iter().all(|side| !side.refs.contains_key(&pfn.0)),
            "{what}: cell {i} handed out frame {} a cell already holds",
            pfn.0
        );
        self.cells[i].refs.insert(pfn.0, 1);
    }

    /// A small allocation of cell `i` was refused: only a dry pool, with
    /// nothing held back in the cell, may refuse one.
    fn refused(&mut self, i: usize, got: MemError, what: &str) {
        assert_eq!(got, MemError::OutOfMemory, "{what}");
        assert_eq!(self.pool.free_frames(), 0, "{what}: refused with frames in the pool");
        assert_eq!(self.cells[i].held_back(), 0, "{what}: refused with frames held back");
        self.seen.exhausted += 1;
    }

    /// Runs `free` on cell `i`, which gives back the references the
    /// script holds on `gone`, and drops them from the script's counts;
    /// returns what `free` did and how many frames that freed. If frames
    /// left the cell for the pool, counts it and forgets what the cell
    /// freed: none of it need be the cell's own any more.
    fn freeing<T>(&mut self, i: usize, gone: impl IntoIterator<Item = Pfn>, free: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let before = self.cells[i].phys.drawn_frames();
        let out = free(self);
        let freed = self.drop_refs(i, gone);
        if self.cells[i].phys.drawn_frames() < before {
            self.seen.drained += 1;
            self.cells[i].freed.clear();
        }
        (out, freed)
    }

    /// Drops one reference the script holds on each of `frames` of cell
    /// `i`, noting those that reach zero; returns how many did.
    fn drop_refs(&mut self, i: usize, frames: impl IntoIterator<Item = Pfn>) -> u64 {
        let side = &mut self.cells[i];
        let mut freed = 0;
        for pfn in frames {
            let n = side.refs.get_mut(&pfn.0).expect("a frame the cell handed out");
            *n -= 1;
            if *n == 0 {
                side.refs.remove(&pfn.0);
                side.freed.insert(pfn.0);
                freed += 1;
            }
        }
        freed
    }

    /// `n` frames through cell `i`'s `alloc_zeroed`, and at `free_at`
    /// allocations in, one loose frame dropped; stops at the first refusal.
    fn alloc_run(&mut self, i: usize, n: u64, free_at: Option<u64>, rng: &mut Rng, what: &str) {
        for k in 0..n {
            if free_at == Some(k) && !self.cells[i].loose.is_empty() {
                self.dec_ref(i, rng, what);
            }
            let pool_free = self.pool.free_frames();
            match self.cells[i].phys.alloc_zeroed(&mut self.cycles) {
                Ok(pfn) => {
                    self.take(i, pfn, what);
                    let side = &mut self.cells[i];
                    if side.freed.remove(&pfn.0) && self.pool.free_frames() == pool_free {
                        self.seen.reused += 1;
                    }
                    side.loose.push(pfn);
                }
                Err(e) => return self.refused(i, e, what),
            }
            self.check(what);
        }
    }

    /// Drops a random loose frame of cell `i`.
    fn dec_ref(&mut self, i: usize, rng: &mut Rng, what: &str) {
        let side = &mut self.cells[i];
        let pfn = side.loose.swap_remove(rng.gen_index(side.loose.len()));
        let (got, freed) = self.freeing(i, [pfn], |m| m.cells[i].phys.dec_ref(pfn, &mut m.cycles));
        assert_eq!(got, Ok(freed == 1), "{what}: dec_ref");
    }

    /// A new space in cell `i` with a heap of `pages`, populated with huge
    /// pages or without; every frame it maps is one neither cell held.
    fn map(&mut self, i: usize, pages: u64, thp: bool, what: &str) {
        let mut space = AddressSpace::new();
        space.set_thp(thp);
        let TwoCells { cells, cycles, .. } = self;
        space.mmap(heap_vma(Vpn(HEAP), pages), &mut cells[i].phys, cycles).unwrap();
        let populated = space.populate(Vpn(HEAP), pages, &mut cells[i].phys, cycles);
        for pfn in Machine::resident(&space, 0..pages) {
            self.take(i, pfn, what);
            self.cells[i].freed.remove(&pfn.0);
        }
        if let Err(e) = populated {
            self.refused(i, e, what);
        }
        self.cells[i].spaces.push((space, pages));
    }

    fn munmap(&mut self, i: usize, rng: &mut Rng, what: &str) {
        let side = &self.cells[i];
        let k = rng.gen_index(side.spaces.len());
        let pages = side.spaces[k].1;
        let start = rng.gen_below(pages);
        let len = rng.gen_range(1, pages - start + 1);
        let gone = Machine::resident(&side.spaces[k].0, start..start + len);
        let (unmapped, _) = self.freeing(i, gone, |m| {
            let TwoCells { cells, cycles, tlb, .. } = m;
            let Side { phys, spaces, .. } = &mut cells[i];
            spaces[k].0.munmap(Vpn(HEAP + start), len, phys, cycles, tlb, 1)
        });
        assert!(unmapped.is_ok(), "{what}: munmap {unmapped:?}");
    }

    fn destroy(&mut self, i: usize, k: usize) {
        let (mut space, pages) = self.cells[i].spaces.swap_remove(k);
        let gone = Machine::resident(&space, 0..pages);
        self.freeing(i, gone, |m| space.destroy(&mut m.cells[i].phys, &mut m.cycles));
    }

    /// Pins a random frame cell `i` holds for the script, loose or mapped.
    fn pin(&mut self, i: usize, rng: &mut Rng, what: &str) {
        let side = &mut self.cells[i];
        let pfn = if !side.spaces.is_empty() && (side.loose.is_empty() || rng.gen_bool(0.5)) {
            let (space, pages) = &side.spaces[rng.gen_index(side.spaces.len())];
            match space.translate(Vpn(HEAP + rng.gen_below(*pages))) {
                Some(pte) => pte.pfn,
                None => return,
            }
        } else if !side.loose.is_empty() {
            side.loose[rng.gen_index(side.loose.len())]
        } else {
            return;
        };
        assert_eq!(side.phys.pin(pfn), Ok(()), "{what}: pin");
        *side.refs.get_mut(&pfn.0).expect("held") += 1;
        side.pins.push(pfn);
    }

    fn unpin(&mut self, i: usize, k: usize, what: &str) {
        let pfn = self.cells[i].pins.swap_remove(k);
        let (got, freed) = self.freeing(i, [pfn], |m| m.cells[i].phys.unpin(pfn, &mut m.cycles));
        assert_eq!(got, Ok(freed == 1), "{what}: unpin");
    }

    /// Cell `i` gives back everything it holds back.
    fn drain(&mut self, i: usize, what: &str) {
        let side = &mut self.cells[i];
        side.phys.drain();
        side.freed.clear();
        assert_eq!(side.held_back(), 0, "{what}: drained");
    }

    fn check(&self, what: &str) {
        let drawn: u64 = self.cells.iter().map(|side| side.phys.drawn_frames()).sum();
        assert_eq!(drawn + self.pool.free_frames(), self.pool.total_frames(), "{what}: Σ drawn + pool free");
        for (i, side) in self.cells.iter().enumerate() {
            assert_eq!(side.phys.used_frames(), side.refs.len() as u64, "{what}: cell {i} used_frames");
            assert!(
                side.held_back() <= 3 * CELL_BATCH,
                "{what}: cell {i} holds back {} frames",
                side.held_back()
            );
            assert_eq!(side.phys.free_frames(), self.pool.free_frames() + side.held_back(), "{what}: cell {i} free_frames");
        }
    }
}

/// One seeded script on a two-cell machine of `total` frames, in the
/// phases [`run_phys_script`]'s have, each step on the cells in turn.
fn run_two_cell_script(total: u64, seed: u64, steps: u64) -> SharedSeen {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = TwoCells::new(total);
    m.check(&format!("total {total} seed {seed:#x}: fresh"));
    let phase_len = (steps / 6).max(1);
    for step in 0..steps {
        let i = (step % 2) as usize;
        let what = format!("total {total} seed {seed:#x} step {step} cell {i}");
        let filling = (step / phase_len) & 1 == 0;
        if rng.gen_bool(if filling { 0.7 } else { 0.25 }) {
            match rng.gen_below(8) {
                0..=1 => {
                    let pages = match rng.gen_below(3) {
                        0 => rng.gen_range(1, 64),
                        1 => HUGE_PAGES + rng.gen_below(40),
                        _ => rng.gen_range(CELL_BATCH, HUGE_PAGES),
                    };
                    m.map(i, pages, rng.gen_bool(0.5), &what);
                }
                2..=3 => {
                    let n = rng.gen_range(CELL_BATCH + 1, 400);
                    let free_at = rng.gen_bool(0.5).then(|| rng.gen_range(1, n));
                    m.alloc_run(i, n, free_at, &mut rng, &what);
                }
                _ => {
                    let n = rng.gen_range(1, 48);
                    let free_at = rng.gen_bool(0.2).then(|| rng.gen_range(1, n + 1));
                    m.alloc_run(i, n, free_at, &mut rng, &what);
                }
            }
        } else {
            let side = &m.cells[i];
            match rng.gen_below(12) {
                0..=1 if !side.loose.is_empty() => m.dec_ref(i, &mut rng, &what),
                2..=3 if !side.loose.is_empty() => {
                    for _ in 0..rng.gen_range(1, 300).min(side.loose.len() as u64) {
                        m.dec_ref(i, &mut rng, &what);
                    }
                }
                4 => m.pin(i, &mut rng, &what),
                5 if !side.pins.is_empty() => m.unpin(i, rng.gen_index(side.pins.len()), &what),
                6..=7 if !side.spaces.is_empty() => m.munmap(i, &mut rng, &what),
                8..=10 if !side.spaces.is_empty() => m.destroy(i, rng.gen_index(side.spaces.len())),
                11 => m.drain(i, &what),
                _ => {}
            }
        }
        m.check(&what);
    }
    // Everything back: the machine must be as free as at boot.
    for i in 0..2 {
        while !m.cells[i].spaces.is_empty() {
            m.destroy(i, 0);
        }
        while !m.cells[i].loose.is_empty() {
            m.dec_ref(i, &mut rng, "drain");
        }
        while !m.cells[i].pins.is_empty() {
            m.unpin(i, 0, "drain");
        }
        m.drain(i, "drain");
    }
    let what = format!("total {total} seed {seed:#x}: drained");
    m.check(&what);
    assert_eq!(m.pool.free_frames(), total, "{what}");
    assert!(m.cells.iter().all(|side| side.refs.is_empty()), "{what}");
    m.seen
}

#[test]
fn two_cells_over_one_pool_conserve_frames_and_bound_what_they_hold_back() {
    let mut seen = SharedSeen::default();
    for (ti, &total) in [1_500u64, 2_561, 4_000].iter().enumerate() {
        for case in 0..4u64 {
            let s = run_two_cell_script(total, 0x2CE1_0000 + ((ti as u64) << 8) + case, 400);
            seen.exhausted += s.exhausted;
            seen.drained += s.drained;
            seen.reused += s.reused;
        }
    }
    let SharedSeen { exhausted, drained, reused } = seen;
    assert!(
        exhausted > 100 && drained > 100 && reused > 1_000,
        "the scripts must run the pool dry, drain past the limit and reuse freed frames: {seen:?}"
    );
}
