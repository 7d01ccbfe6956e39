//! Buddy allocator for contiguous physical frame runs.
//!
//! Page-table nodes and kernel metadata want physically contiguous memory;
//! the buddy system provides naturally aligned power-of-two runs and is the
//! classic design used by Linux's zone allocator. Splitting and coalescing
//! take one step per order between the request and the block found, and
//! each step is a word operation per level of a `FreeMap` (three levels
//! cover 2^18 blocks), so a frame costs the same few loads and stores
//! whatever the size of the machine.
//!
//! ## Lowest address first
//!
//! An allocation takes the *lowest-addressed* free block of the smallest
//! order that has one. That choice is part of the contract, not a detail:
//! frame numbers end up in PTEs, content stamps and traces, so every
//! checked-in result depends on which frame each allocation got. It is why
//! the free lists are ordered bitmaps and not intrusive LIFO lists, which
//! would be simpler still; `tests/buddy_reference.rs` holds the allocator
//! to it frame by frame against an ordered-set model.
//!
//! ## Reserving what `alloc(0)` would carve next
//!
//! `BuddyAllocator::reserve` hands a caller the block `alloc(0)` would
//! carve its next frames from — the lowest block of the smallest order
//! that has one, a block above the caller's cap (2 MiB on a one-cell
//! machine, 64 frames on a cell that shares its pool) split down to it
//! first, its upper halves inserted as `alloc`'s split inserts them — and
//! `BuddyAllocator::settle` takes it back, the frames handed out so far
//! as order-0 allocations and the rest as the pieces the split would have
//! left free. Every order below the block's was empty when it was chosen,
//! so while nothing else touches the allocator, `alloc(0)` would hand the
//! block out in ascending order and leave the free lists as the settle
//! does, whatever the cap: a caller may hand the frames out itself,
//! without coming back here for each ([`crate::phys`], "One machine").

use crate::addr::Pfn;
use crate::error::{MemError, MemResult};
use std::ops::Range;

/// Maximum order supported (2^MAX_ORDER frames per block).
pub const MAX_ORDER: usize = 16;

/// Bits per bitmap word.
const WORD: usize = u64::BITS as usize;

/// The free blocks of one order: a bit per naturally aligned block of the
/// region, set while the block is free, under summary levels — a bit per
/// word of the level below, set while that word is nonzero — up to a level
/// of one word. Insert and remove touch a word per level and stop at the
/// first level whose summary does not change; the lowest free block is a
/// `trailing_zeros` per level from the top.
#[derive(Debug, Clone)]
struct FreeMap {
    order: usize,
    /// The block bit 0 stands for, in units of blocks: `base >> order`, so
    /// a region that starts mid-block still indexes from zero.
    origin: u64,
    /// Every level's words back to back: the block bitmap first, the
    /// one-word top last.
    words: Vec<u64>,
    /// Where each level starts in `words`, the bitmap's 0 first.
    starts: Vec<usize>,
}

impl FreeMap {
    /// An empty map for the `order` blocks of frames `base..base + total`.
    fn new(order: usize, base: u64, total: u64) -> FreeMap {
        let origin = base >> order;
        let blocks = match total {
            0 => 0,
            _ => ((base + total - 1) >> order) - origin + 1,
        };
        let mut starts = vec![0];
        let mut level = (blocks as usize).div_ceil(WORD).max(1);
        let mut len = level;
        while level > 1 {
            starts.push(len);
            level = level.div_ceil(WORD);
            len += level;
        }
        FreeMap {
            order,
            origin,
            words: vec![0; len],
            starts,
        }
    }

    fn index(&self, blk: u64) -> usize {
        ((blk >> self.order) - self.origin) as usize
    }

    fn is_empty(&self) -> bool {
        self.words.last() == Some(&0)
    }

    /// Marks the block at `blk` free.
    fn insert(&mut self, blk: u64) {
        let mut i = self.index(blk);
        for &start in &self.starts {
            let word = &mut self.words[start + i / WORD];
            let summarized = *word != 0;
            *word |= 1 << (i % WORD);
            if summarized {
                break;
            }
            i /= WORD;
        }
    }

    /// Marks the block at `blk` taken; `false` (and nothing changed) if it
    /// was not free.
    fn remove(&mut self, blk: u64) -> bool {
        let mut i = self.index(blk);
        if self.words[i / WORD] & (1 << (i % WORD)) == 0 {
            return false;
        }
        for &start in &self.starts {
            let word = &mut self.words[start + i / WORD];
            *word &= !(1 << (i % WORD));
            if *word != 0 {
                break;
            }
            i /= WORD;
        }
        true
    }

    /// The lowest-addressed free block, if any.
    fn first(&self) -> Option<u64> {
        let mut i = 0;
        for &start in self.starts.iter().rev() {
            let word = self.words[start + i];
            if word == 0 {
                return None; // only the top word of an empty map
            }
            i = i * WORD + word.trailing_zeros() as usize;
        }
        Some((self.origin + i as u64) << self.order)
    }
}

/// A power-of-two buddy allocator over frames `base..base + total`.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    total: u64,
    /// Free blocks per order.
    free_lists: Vec<FreeMap>,
    /// Bit `o` is set while `free_lists[o]` holds a block.
    nonempty: u32,
    /// Per frame (indexed from `base`): order + 1 where a live allocation
    /// starts, 0 everywhere else, to validate frees.
    allocated: Vec<u8>,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator over `total` frames starting at `base`.
    ///
    /// `total` need not be a power of two; the region is tiled greedily
    /// with maximal aligned power-of-two blocks.
    pub fn new(base: Pfn, total: u64) -> Self {
        let mut a = BuddyAllocator {
            base: base.0,
            total,
            free_lists: (0..=MAX_ORDER)
                .map(|o| FreeMap::new(o, base.0, total))
                .collect(),
            nonempty: 0,
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
            a.insert_free(order, start);
            start += 1u64 << order;
        }
        a
    }

    fn insert_free(&mut self, order: usize, blk: u64) {
        self.free_lists[order].insert(blk);
        self.nonempty |= 1 << order;
    }

    /// Takes the block at `blk` off order `order`'s free list; `false` if it
    /// was not on it.
    fn remove_free(&mut self, order: usize, blk: u64) -> bool {
        let list = &mut self.free_lists[order];
        let removed = list.remove(blk);
        if removed && list.is_empty() {
            self.nonempty &= !(1 << order);
        }
        removed
    }

    /// Allocates a contiguous, naturally aligned run of `2^order` frames:
    /// the lowest-addressed free block of the smallest sufficient order.
    pub fn alloc(&mut self, order: usize) -> MemResult<Pfn> {
        if order > MAX_ORDER {
            return Err(MemError::Fragmented);
        }
        // The smallest order with a free block, from the mask.
        let sufficient = self.nonempty >> order;
        if sufficient == 0 {
            return Err(if self.free_frames >= (1u64 << order) {
                MemError::Fragmented
            } else {
                MemError::OutOfMemory
            });
        }
        let mut o = order + sufficient.trailing_zeros() as usize;
        let blk = self.free_lists[o]
            .first()
            .expect("the mask says this order has a block");
        self.remove_free(o, blk);
        // Split down to the requested order, returning the upper halves.
        while o > order {
            o -= 1;
            let upper = blk + (1u64 << o);
            self.insert_free(o, upper);
        }
        self.allocated[(blk - self.base) as usize] = order as u8 + 1;
        self.free_frames -= 1u64 << order;
        Ok(Pfn(blk))
    }

    /// Allocates a `2^order` run like [`BuddyAllocator::alloc`], but
    /// records each frame of the run as its own order-0 allocation, so the
    /// caller may free frames one at a time (coalescing still reassembles
    /// the block once all of them come back). A huge mapping takes its 512
    /// frames this way: contiguous, and each with its own reference count.
    pub fn alloc_run(&mut self, order: usize) -> MemResult<Vec<Pfn>> {
        let base = self.alloc(order)?;
        let n = 1u64 << order;
        let first = (base.0 - self.base) as usize;
        self.allocated[first..first + n as usize].fill(1);
        Ok((0..n).map(|i| Pfn(base.0 + i)).collect())
    }

    /// Takes the block `alloc(0)` would carve its next frames from off the
    /// free lists, split down to `2^max_order` frames if it is larger, and
    /// returns its frames; see the module docs. The frames count as
    /// allocated until [`BuddyAllocator::settle`] takes the block back.
    pub(crate) fn reserve(&mut self, max_order: usize) -> MemResult<Range<u64>> {
        // `alloc(0)` carves the lowest block of the smallest order that has
        // one; asking for that order, or for `max_order` when it is larger,
        // takes the same block and splits it no further.
        let order = (self.nonempty.trailing_zeros() as usize).min(max_order);
        let blk = self.alloc(order)?.0;
        Ok(blk..blk + (1u64 << order))
    }

    /// Takes back `block`, reserved by [`BuddyAllocator::reserve`], of
    /// which the first `taken` frames were handed out: they become order-0
    /// allocations, and the rest goes back as the pieces that many
    /// `alloc(0)` calls would have left free.
    pub(crate) fn settle(&mut self, block: Range<u64>, taken: u64) {
        let first = (block.start - self.base) as usize;
        self.allocated[first] = 0;
        self.allocated[first..first + taken as usize].fill(1);
        let len = block.end - block.start;
        let mut at = taken;
        while at < len {
            // The largest aligned block from `at` (the whole one from 0):
            // its buddy below was handed out, so only a block given back
            // whole can coalesce.
            let order = (at | len).trailing_zeros() as usize;
            self.give_back(block.start + at, order);
            at += 1u64 << order;
        }
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`],
    /// coalescing with its buddy as far as possible. The free lists after a
    /// set of frees do not depend on the order the frees came in.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is not the base of a live allocation.
    pub fn free(&mut self, pfn: Pfn) {
        let blk = pfn.0;
        let slot = blk
            .checked_sub(self.base)
            .and_then(|i| self.allocated.get_mut(i as usize))
            .filter(|slot| **slot != 0)
            .unwrap_or_else(|| panic!("buddy free of unallocated block {}", blk));
        let order = (*slot - 1) as usize;
        *slot = 0;
        self.give_back(blk, order);
    }

    /// Puts the `order` block at `blk` on the free lists, coalescing it
    /// with its buddy as far as possible.
    fn give_back(&mut self, mut blk: u64, mut order: usize) {
        self.free_frames += 1u64 << order;
        // Coalesce upward while the buddy is free.
        while order < MAX_ORDER {
            let buddy = blk ^ (1u64 << order);
            if buddy < self.base || buddy + (1u64 << order) > self.base + self.total {
                break;
            }
            if !self.remove_free(order, buddy) {
                break;
            }
            blk = blk.min(buddy);
            order += 1;
        }
        self.insert_free(order, blk);
    }

    /// Returns the number of free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Returns the total number of managed frames.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Returns the largest order currently allocatable without splitting
    /// failure, or `None` if empty.
    pub fn largest_free_order(&self) -> Option<usize> {
        self.nonempty.checked_ilog2().map(|o| o as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HUGE_PAGES;

    #[test]
    fn free_map_finds_the_lowest_block_through_every_summary_level() {
        // Order-1 blocks of frames 4_099..304_099: 150 001 of them, so the
        // bitmap has 2 344 words under 37 under 1, and bit 0 stands for
        // the block the region starts in the middle of.
        let mut m = FreeMap::new(1, 4_099, 300_000);
        assert_eq!(m.starts, [0, 2_344, 2_344 + 37]);
        assert_eq!(m.words.len(), 2_344 + 37 + 1);
        assert!(m.is_empty());
        assert_eq!(m.first(), None);
        let (low, mid, high) = (4_100, 4_100 + 2 * 70_000, 304_098);
        m.insert(high);
        assert_eq!(m.first(), Some(high));
        m.insert(mid);
        m.insert(mid + 2); // the same word as `mid`
        assert_eq!(m.first(), Some(mid));
        m.insert(low);
        assert_eq!(m.first(), Some(low));
        assert!(!m.remove(low + 2), "never inserted");
        assert!(m.remove(low));
        assert!(!m.remove(low), "already taken");
        assert!(m.remove(mid));
        assert_eq!(m.first(), Some(mid + 2), "the word still has a block");
        assert!(m.remove(mid + 2));
        assert_eq!(m.first(), Some(high), "emptied words left the summaries");
        assert!(m.remove(high));
        assert!(m.is_empty());
        assert!(m.words.iter().all(|&w| w == 0));
    }

    #[test]
    fn alloc_splits_and_free_coalesces() {
        let mut b = BuddyAllocator::new(Pfn(0), 64);
        assert_eq!(b.free_frames(), 64);
        let x = b.alloc(0).unwrap();
        assert_eq!(b.free_frames(), 63);
        let y = b.alloc(3).unwrap();
        assert_eq!(b.free_frames(), 55);
        assert_eq!(y.0 % 8, 0, "order-3 block naturally aligned");
        b.free(x);
        b.free(y);
        assert_eq!(b.free_frames(), 64);
        // Everything must have coalesced back into one order-6 block.
        assert_eq!(b.largest_free_order(), Some(6));
    }

    #[test]
    fn distinct_blocks_never_overlap() {
        let mut b = BuddyAllocator::new(Pfn(0), 256);
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for order in [0usize, 1, 2, 3, 0, 2, 4, 1] {
            let p = b.alloc(order).unwrap();
            runs.push((p.0, 1u64 << order));
        }
        for i in 0..runs.len() {
            for j in i + 1..runs.len() {
                let (a, la) = runs[i];
                let (c, lc) = runs[j];
                assert!(
                    a + la <= c || c + lc <= a,
                    "blocks overlap: {:?} {:?}",
                    runs[i],
                    runs[j]
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_total_is_fully_usable() {
        let mut b = BuddyAllocator::new(Pfn(0), 100);
        let mut n = 0;
        while b.alloc(0).is_ok() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn alloc_run_frames_free_individually_and_recoalesce() {
        let mut b = BuddyAllocator::new(Pfn(0), 64);
        let run = b.alloc_run(3).unwrap();
        assert_eq!(run.len(), 8);
        assert_eq!(b.free_frames(), 56);
        // Frames are contiguous and each one frees on its own.
        for w in run.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
        }
        for pfn in &run {
            b.free(*pfn);
        }
        assert_eq!(b.free_frames(), 64);
        assert_eq!(b.largest_free_order(), Some(6), "run coalesced back");
    }

    #[test]
    fn fragmentation_vs_oom() {
        let mut b = BuddyAllocator::new(Pfn(0), 4);
        let a0 = b.alloc(0).unwrap();
        let _a1 = b.alloc(0).unwrap();
        let _a2 = b.alloc(0).unwrap();
        let _a3 = b.alloc(0).unwrap();
        assert_eq!(b.alloc(0), Err(MemError::OutOfMemory));
        b.free(a0);
        // One frame free but a pair is requested: fragmentation.
        assert_eq!(b.alloc(1), Err(MemError::OutOfMemory));
    }

    #[test]
    fn fragmented_error_when_frames_exist_but_not_contiguous() {
        let mut b = BuddyAllocator::new(Pfn(0), 8);
        let blocks: Vec<_> = (0..8).map(|_| b.alloc(0).unwrap()).collect();
        // Free alternating frames: 4 free frames, none adjacent.
        for blk in blocks.iter().step_by(2) {
            b.free(*blk);
        }
        assert_eq!(b.free_frames(), 4);
        assert_eq!(b.alloc(2), Err(MemError::Fragmented));
        assert!(b.alloc(0).is_ok());
    }

    /// The whole state of `a` and `b` is the same, and so are the next ten
    /// frames each hands out.
    fn assert_same(mut a: BuddyAllocator, mut b: BuddyAllocator, what: &str) {
        let words = |x: &BuddyAllocator| x.free_lists.iter().map(|l| l.words.clone()).collect::<Vec<_>>();
        assert_eq!(words(&a), words(&b), "{what}: free lists");
        assert_eq!((a.nonempty, a.free_frames), (b.nonempty, b.free_frames), "{what}");
        assert_eq!(a.allocated, b.allocated, "{what}: allocations");
        assert_eq!(a.largest_free_order(), b.largest_free_order(), "{what}");
        let next = |x: &mut BuddyAllocator| (0..10).map(|_| x.alloc(0)).collect::<Vec<_>>();
        assert_eq!(next(&mut a), next(&mut b), "{what}: the next ten frames");
    }

    #[test]
    fn a_settled_reservation_is_what_that_many_single_frames_leave() {
        // A 4 096-frame block split down to 512; the order-9 block above a
        // free order-10 one, taken as it is; an order-9 block that 512
        // frames going back one at a time put together.
        let mut freed = BuddyAllocator::new(Pfn(0), 2_048);
        let run = freed.alloc_run(9).unwrap();
        freed.alloc(9).unwrap();
        run.into_iter().for_each(|pfn| freed.free(pfn));
        let starts = [
            (BuddyAllocator::new(Pfn(0), 4_096), "split"),
            (BuddyAllocator::new(Pfn(0), 1_536), "whole"),
            (freed, "coalesced"),
        ];
        // Capped at 2 MiB and at 64 frames, the block splits further and is
        // still what `alloc(0)` hands out next.
        for (start, what) in starts {
            for (cap, len) in [(9, HUGE_PAGES), (6, 64)] {
                for n in [0, 1, len - 1, len] {
                    let what = format!("{what}, cap {len}, {n} frames");
                    let mut one_by_one = start.clone();
                    let frames: Vec<u64> = (0..n).map(|_| one_by_one.alloc(0).unwrap().0).collect();
                    let mut reserved = start.clone();
                    let block = reserved.reserve(cap).unwrap();
                    assert_eq!(block.end - block.start, len, "{what}");
                    assert_eq!(reserved.free_frames() + len, start.free_frames(), "{what}");
                    assert!(frames.iter().copied().eq(block.start..block.start + n), "{what}: in ascending order");
                    reserved.settle(block, n);
                    assert_same(reserved, one_by_one, &what);
                }
            }
        }
    }

    #[test]
    fn reservations_serve_small_blocks_at_unaligned_ends_to_exhaustion() {
        // Frames 1 000..1 100 tile as 8, 16, 64, 8 and 4: the smallest, and
        // so the first reserved, is the 4 at the region's unaligned end.
        let start = BuddyAllocator::new(Pfn(1_000), 100);
        let mut one_by_one = start.clone();
        let mut reserved = start.clone();
        let mut blocks = Vec::new();
        while let Ok(block) = reserved.reserve(9) {
            for pfn in block.clone() {
                assert_eq!(one_by_one.alloc(0), Ok(Pfn(pfn)));
            }
            let len = block.end - block.start;
            blocks.push((block.start, len));
            // Half of it back, then the other half taken one at a time.
            reserved.settle(block.clone(), len / 2);
            (len / 2..len).for_each(|_| _ = reserved.alloc(0).unwrap());
        }
        assert_eq!(blocks, [(1_096, 4), (1_000, 8), (1_088, 8), (1_008, 16), (1_024, 64)]);
        assert_eq!(reserved.reserve(9), Err(MemError::OutOfMemory));
        assert_eq!(one_by_one.alloc(0), Err(MemError::OutOfMemory));
        assert_same(reserved, one_by_one, "exhausted");
    }

    #[test]
    #[should_panic(expected = "unallocated block")]
    fn free_unallocated_panics() {
        let mut b = BuddyAllocator::new(Pfn(0), 16);
        b.free(Pfn(3));
    }

    #[test]
    fn nonzero_base_region() {
        let mut b = BuddyAllocator::new(Pfn(1000), 32);
        let p = b.alloc(2).unwrap();
        assert!(p.0 >= 1000 && p.0 + 4 <= 1032);
        b.free(p);
        assert_eq!(b.free_frames(), 32);
    }
}
