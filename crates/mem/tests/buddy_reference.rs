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

use fpr_mem::buddy::{BuddyAllocator, MAX_ORDER};
use fpr_mem::error::{MemError, MemResult};
use fpr_mem::Pfn;
use fpr_rng::Rng;
use std::collections::BTreeSet;

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
