//! Physical memory: frame store with COW reference counts and logical
//! page contents.
//!
//! Rather than materialising 4 KiB of real bytes per simulated frame (which
//! would make multi-GiB experiments impossible to run), each frame carries a
//! single `u64` *content stamp*. A write to any address in a page replaces
//! the page's stamp; reads observe it. This is exactly enough state to
//! verify copy-on-write semantics (a child must observe the parent's stamps
//! as of fork time, and later writes must not leak across), while the
//! *costs* of moving real data are charged through [`CostModel`].
//!
//! ## One machine
//!
//! Frames always come from a [`SharedFramePool`]: one buddy core behind
//! the `"buddy"` [`VLock`], shared by every kernel cell of the machine.
//! The cell count is 1 by default — [`PhysMemory::new`] builds a pool of
//! its own — so a single-kernel world is not a second mechanism, it is
//! the SMP machine with nobody else on it. Each [`PhysMemory`] is one
//! cell's view: its own frame table, pins, watermarks and swap device
//! over the common pool, plus a count of the frames it has `drawn`, which
//! the machine-wide conservation check sums (Σ drawn + pool free = total).
//!
//! Every cell takes every frame the same way, and charges `frame_alloc`
//! for it. A cell reaches the pool through its `CellPool`, which takes
//! the lock once per call, not once per frame: under one acquisition the
//! pool *reserves* the cell the block `alloc(0)` would carve next
//! (`BuddyAllocator::reserve`: the lowest block of the smallest order
//! that has one, a larger block split down to the cell's cap first),
//! which the cell hands out in ascending order without the lock. Before
//! anything else touches the pool the cell *settles* the block
//! (`BuddyAllocator::settle`): the frames handed out become order-0
//! allocations and the unused rest goes back as the pieces the buddy's own
//! split would hold. That happens under the acquisition of whatever comes
//! next — the free batch of a `release`, a huge-run allocation, the next
//! reservation, a [`PhysMemory::drain`]. Every order below the block was
//! empty when it was chosen, so while nothing else touches the pool
//! `alloc(0)` would take the block in that same ascending order and leave
//! the free lists as the settle does.
//!
//! What differs between cells is fixed when the cell is built:
//!
//! * **A one-cell machine** ([`PhysMemory::new`]) reserves blocks of up to
//!   `HUGE_PAGES` frames and gives the frames a `release` frees back to the
//!   pool, unless they are exactly the last `n` its reserved block handed
//!   out. Then the block *takes them back*, without the lock, by moving its
//!   next frame down by `n`: freeing the last `n` of the `k` handed out
//!   after `settle(taken = k)` leaves the buddy as `settle(taken = k − n)`
//!   does. Nothing else touches its pool, so every frame is the one
//!   `alloc(0)` would hand out.
//! * **A cell that shares its pool** ([`PhysMemory::new_cell`]) reserves
//!   blocks of up to `SHARED_BATCH` (64) frames, and *parks* the frames a
//!   `release` frees on a private stack that it takes from first, without
//!   the lock, as Linux's per-CPU page lists do. Once more than 2 × 64 are
//!   parked it gives back all but 64 under one acquisition, so it holds
//!   back at most 64 + 128 frames. A cell that reuses what it freed does
//!   not meet the other cells on the `"buddy"` lock once it is warm:
//!   without the stack, E16's per-cell arms waited on `buddy` and neither
//!   scaled nor came out the same twice.
//!
//! A teardown ([`crate::AddressSpace::destroy`]) gives back every frame it
//! freed in one batch at its end (`PhysMemory::batched`), not a leaf node
//! at a time, on either kind of cell. A COW child's copies come out of the
//! reserved block in the order they are written, and its teardown frees
//! them in address order, so on a one-cell machine they come back as the
//! block's tail, and the next request is handed the same frames again.
//! A cell that shares its pool parks the whole batch at once, and gives
//! back all but `SHARED_BATCH` if that overfills its stack. Which frames
//! it keeps can differ from parking per `release`; E16's `fig_smp`, which
//! runs on such cells, comes out byte-identical either way.
//!
//! The frames a cell holds back — the rest of its block and its parked
//! frames — count as drawn and as free, so `free_frames`, pressure,
//! watermarks, `used_frames` and conservation read as if they were still
//! in the pool; [`PhysMemory::drain`] gives them all back.
//!
//! ## The frame table
//!
//! Per-frame state — reference count and content stamp — lives in arrays
//! indexed by frame number, like Linux's `mem_map`: a fork takes a
//! reference per page it shares and a teardown drops one, so the lookup
//! must cost an index, not a hash. A count of zero *is* "no such frame":
//! every access to a frame the cell does not hold still fails with
//! [`MemError::NotMapped`]. Like sparsemem's sections, the arrays come in
//! chunks of 1 024 frames (`TABLE_CHUNK`), each allocated zeroed when a frame
//! of its range is first handed out — the buddy hands out low frames
//! first — so the host pays resident memory for the frames in use, not
//! for the machine's size. (One zeroed allocation for the whole pool is
//! lazily touched only the first time: the allocator recycles it, and the
//! next machine the process boots gets a zero-*filled* table.) Page-table
//! nodes are host memory too, 4 KiB a leaf like the frames they would
//! occupy, and are not in this table: the ones no table holds any more wait
//! on per-thread spare lists in [`crate::page_table`] ("Spare nodes").
//!
//! References are dropped through one primitive, `release`, and taken
//! through its mirror, `retain`. Both work in *runs of frames*: ranges of
//! consecutive frame numbers, as a freshly populated heap maps them — one
//! run for [`PhysMemory::dec_ref`], a 512-frame run for a huge block's
//! `PhysMemory::dec_ref_run`, and for the run of a leaf node that a fork,
//! an unshare, a teardown or a range operation goes over, the runs
//! `LeafNode::frame_runs` reads off the node's maps, with the swap slots
//! of its swap entries as a second pass on the swap device. Each run is cut
//! where a chunk of the table ends; each piece gets one check that every
//! count in it is above zero, then one slice add or subtract, and
//! `release` one more scan for the counts that reached zero. A COW child's
//! node hands in the parent's run *with holes* — the pages the child
//! wrote, which hold copies: the whole slice is stepped, each hole's count
//! in it stepped back, and each hole's own frame stepped singly, in entry
//! order; where a frame of such a run or of a hole is not held, or a hole
//! holds one of the run's frames, what was stepped is undone and the run
//! goes a piece at a time instead. The
//! frames come in entry order — runs in order, each ascending but for its
//! holes — so the frames a release frees go back in that order: `retain`
//! is all or nothing, `release` stops at the first frame the cell does not
//! hold after dropping the ones before it, and the frames of a call go back
//! together, a `frame_free` charge for each and one `mem.frame_free` count
//! and at most one acquisition of the pool for all — or, in a teardown, at
//! most one for the whole teardown.
//!
//! On top of the pool sit *pins*: a kernel-side reference (e.g. the exec
//! image cache) that keeps a frame alive independent of page-table
//! mappings. Pins are tracked separately from PTE references so the
//! structural invariant checker can account for them.

use crate::addr::{Pfn, HUGE_PAGES};
use crate::buddy::BuddyAllocator;
use crate::cost::{CostModel, Cycles};
use crate::error::{MemError, MemResult};
use crate::page_table::Run;
use crate::swap::SwapDevice;
use fpr_faults::FaultSite;
use fpr_trace::metrics::Counter;
use fpr_trace::smp::{LockStats, VLock};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Free-frame watermarks, mirroring Linux's per-zone `min`/`low`/`high`.
///
/// Background reclaim (the simulated kswapd, [`PressureLevel::Low`] and
/// worse) should run while free frames sit below `low` and stop once they
/// recover past `high`; only below `min` is the machine in OOM territory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Below this, allocations are in OOM territory.
    pub min: u64,
    /// Below this, background reclaim should run.
    pub low: u64,
    /// Reclaim's refill target; pressure clears above it.
    pub high: u64,
}

impl Watermarks {
    /// Default watermarks for a machine of `total_frames`, scaled the way
    /// Linux derives zone watermarks from `min_free_kbytes`: `min` is
    /// 1/64th of memory (at least 4 frames), `low` and `high` sit 25% and
    /// 50% above it.
    pub(crate) fn for_total(total_frames: u64) -> Watermarks {
        let min = (total_frames / 64).max(4).min(total_frames);
        Watermarks {
            min,
            low: (min + min / 4).min(total_frames),
            high: (min + min / 2).min(total_frames),
        }
    }
}

/// How tight free memory currently is, judged against [`Watermarks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Free frames at or above the high watermark: no pressure.
    None,
    /// Free frames below high but at or above low: reclaim soon.
    Low,
    /// Free frames below low but at or above min: reclaim now.
    High,
    /// Free frames below min: allocations may fail; OOM territory.
    Critical,
}

/// What a cell that shares its pool keeps to itself, in frames: it
/// reserves blocks of at most this many, and once more than twice this
/// many freed frames are parked it gives back all but this many.
const SHARED_BATCH: u64 = 64;

/// Frames per chunk of the frame table.
const TABLE_CHUNK: usize = 1024;

/// The per-frame state of [`TABLE_CHUNK`] consecutive frames.
#[derive(Debug)]
struct FrameChunk {
    /// COW reference counts; zero for a frame the cell does not hold.
    refs: [u32; TABLE_CHUNK],
    /// Logical content stamps.
    content: [u64; TABLE_CHUNK],
}

/// Where frame `pfn` sits in the frame table: `(chunk, index in chunk)`.
fn table_slot(pfn: Pfn) -> (usize, usize) {
    (pfn.0 as usize / TABLE_CHUNK, pfn.0 as usize % TABLE_CHUNK)
}

/// Takes a reference on each frame of `refs`, the counts of the frames from
/// `first` on, or with `DROP` drops one and gathers in `freed` the frames
/// that brings to zero, in order.
#[inline(always)]
fn step<const DROP: bool>(first: u64, refs: &mut [u32], freed: &mut Vec<Pfn>) {
    if !DROP {
        return refs.iter_mut().for_each(|r| *r += 1);
    }
    refs.iter_mut().for_each(|r| *r -= 1);
    gather(first, refs, freed);
}

/// Gathers in `freed` the frames of `refs`, the counts of the frames from
/// `first` on, that are at zero, in order.
#[inline(always)]
fn gather(first: u64, refs: &[u32], freed: &mut Vec<Pfn>) {
    if refs.iter().fold(false, |freed, &r| freed | (r == 0)) {
        let gone = refs.iter().enumerate().filter(|&(_, &r)| r == 0);
        freed.extend(gone.map(|(k, _)| Pfn(first + k as u64)));
    }
}

/// The machine's buddy core, shared by every kernel cell (one cell on a
/// single-kernel machine, several on different OS threads under SMP).
///
/// A cell reaches it through its `CellPool`, which holds back the block
/// the buddy would carve next and hands it out a frame at a time, and on a
/// cell that shares the pool also parks the frames the cell freed (see the
/// [module docs](self), "One machine"); either way the cell pays the
/// global serialization once per block instead of once per frame. The
/// lock is a [`VLock`] named
/// `"buddy"`, so every contended acquisition is priced in virtual time
/// and counted in [`SharedFramePool::lock_stats`].
///
/// A free-count mirror is kept in an atomic — written only under the
/// lock, from the buddy's own count — so pressure reads
/// ([`PhysMemory::pressure`], [`PhysMemory::free_frames`]) never touch
/// the lock.
#[derive(Debug)]
pub struct SharedFramePool {
    core: VLock<BuddyAllocator>,
    free: AtomicU64,
    total: u64,
}

impl SharedFramePool {
    /// A pool of `total_frames` frames, all free.
    pub fn new(total_frames: u64) -> SharedFramePool {
        SharedFramePool {
            core: VLock::new("buddy", BuddyAllocator::new(Pfn(0), total_frames)),
            free: AtomicU64::new(total_frames),
            total: total_frames,
        }
    }

    /// Total frames in the pool.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// The buddy lock's contention since the pool was made.
    pub fn lock_stats(&self) -> LockStats {
        self.core.stats()
    }

    /// Frames currently free in the pool core (excluding frames any cell
    /// holds back, parked or reserved). Lock-free read of the atomic
    /// mirror.
    pub fn free_frames(&self) -> u64 {
        self.free.load(Ordering::Relaxed)
    }
}

/// One cell's end of the [`SharedFramePool`]: every frame the cell takes
/// from the pool or gives back goes through here, under one acquisition
/// of the core per call. It holds the block the pool reserved for the cell
/// ([`BuddyAllocator::reserve`]), handed out a frame at a time without the
/// lock, and settles it first whenever it takes the lock for anything
/// else; on a cell that shares the pool it also holds the parked frames.
#[derive(Debug)]
struct CellPool {
    shared: Arc<SharedFramePool>,
    /// The reserved block's frames not handed out yet, in ascending order.
    left: Range<u64>,
    /// Where the reserved block begins: `start..left.start` are handed out.
    /// `start == left.end` when the cell holds no block.
    start: u64,
    /// The frames the cell freed and keeps, taken again last in, first out;
    /// `None` on a one-cell machine, which parks nothing.
    parked: Option<Vec<Pfn>>,
}

impl CellPool {
    fn new(shared: Arc<SharedFramePool>, parked: Option<Vec<Pfn>>) -> CellPool {
        CellPool { shared, left: 0..0, start: 0, parked }
    }

    /// Frames the cell holds back, in its reserved block and parked: drawn
    /// by the cell, and free.
    fn held_back(&self) -> u64 {
        let parked = self.parked.as_ref().map_or(0, |p| p.len() as u64);
        self.left.end - self.left.start + parked
    }

    /// Runs `op` on the locked core, after settling the reserved block —
    /// the frames handed out become order-0 allocations, the rest goes
    /// back — so `op` finds the core as taking those frames one at a time
    /// would have left it; then refreshes the free-count mirror.
    fn with_core<T>(&mut self, op: impl FnOnce(&mut BuddyAllocator) -> T) -> T {
        #[cfg(test)]
        tests::POOL_LOCKS.with(|n| n.set(n.get() + 1));
        let mut core = self.shared.core.lock();
        if self.start < self.left.end {
            core.settle(self.start..self.left.end, self.left.start - self.start);
            (self.left, self.start) = (0..0, 0);
        }
        let out = op(&mut core);
        self.shared.free.store(core.free_frames(), Ordering::Relaxed);
        out
    }

    /// One frame: the last one parked, or the reserved block's next, or
    /// the first of the block the pool reserves once that one is handed
    /// out.
    #[inline]
    fn take_one(&mut self) -> MemResult<Pfn> {
        if let Some(pfn) = self.parked.as_mut().and_then(Vec::pop) {
            return Ok(pfn);
        }
        if self.left.is_empty() {
            let cap = if self.parked.is_some() { SHARED_BATCH } else { HUGE_PAGES };
            let block = self.with_core(|core| core.reserve(cap.trailing_zeros() as usize))?;
            (self.start, self.left) = (block.start, block);
        }
        let pfn = self.left.start;
        self.left.start += 1;
        Ok(Pfn(pfn))
    }

    /// An exactly-`2^order` naturally aligned run (huge mappings).
    fn alloc_aligned_run(&mut self, order: usize) -> MemResult<Vec<Pfn>> {
        self.with_core(|core| core.alloc_run(order))
    }

    /// Returns `pfns` to the core under one lock acquisition.
    fn free_many(&mut self, pfns: &[Pfn]) {
        if pfns.is_empty() {
            return;
        }
        #[cfg(test)]
        tests::POOL_FREES.with(|n| n.set(n.get() + 1));
        self.with_core(|core| pfns.iter().for_each(|&pfn| core.free(pfn)));
    }

    /// Takes back the frames a release freed, each once: parks them on a
    /// cell that shares the pool — giving back all but [`SHARED_BATCH`] once
    /// more than twice that many are parked. On a one-cell machine, frames
    /// that are exactly the last ones the reserved block handed out go back
    /// into the block, without the lock; any others return to the core.
    fn give_back(&mut self, pfns: &[Pfn]) {
        let Some(parked) = self.parked.as_mut() else {
            // `n` distinct frames all among the last `n` handed out are them.
            let tail = self.left.start.saturating_sub(pfns.len() as u64)..self.left.start;
            if tail.start >= self.start && pfns.iter().all(|pfn| tail.contains(&pfn.0)) {
                self.left.start = tail.start;
                return;
            }
            return self.free_many(pfns);
        };
        parked.extend_from_slice(pfns);
        if parked.len() as u64 > 2 * SHARED_BATCH {
            let over = parked.split_off(SHARED_BATCH as usize);
            self.free_many(&over);
        }
    }

    /// Gives back everything the cell holds back — the reserved block and
    /// the parked frames — under one acquisition.
    fn drain(&mut self) {
        if self.held_back() > 0 {
            let parked = self.parked.as_mut().map(std::mem::take).unwrap_or_default();
            self.with_core(|core| parked.iter().for_each(|&pfn| core.free(pfn)));
        }
    }
}

/// Machine-wide transparent-huge-page counters (`/proc/meminfo`'s THP
/// line). Promotion failures are *absorbed* — the mapping proceeds with
/// small pages — so `failed` counts fallbacks, not errors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThpStats {
    /// Blocks collapsed into 2 MiB huge leaves.
    pub promoted: u64,
    /// Huge leaves split back into small PTEs.
    pub demoted: u64,
    /// Promotion attempts that fell back to small pages (fragmentation
    /// or an injected `pt_promote` fault).
    pub failed: u64,
}

/// One cell's view of the machine's physical memory.
#[derive(Debug)]
pub struct PhysMemory {
    /// The cell's end of the machine-wide frame pool it draws from.
    pool: CellPool,
    /// The frame table: one slot per [`TABLE_CHUNK`] frames of the pool,
    /// empty until a frame of the chunk is handed out.
    table: Vec<Option<Box<FrameChunk>>>,
    cost: CostModel,
    /// Kernel pins per frame (image cache etc.); each pin holds one ref.
    pins: HashMap<u64, u32>,
    /// Cumulative count of frames ever allocated (statistics).
    pub frames_allocated_total: u64,
    /// Cumulative count of 4 KiB page copies performed (statistics).
    pub pages_copied_total: u64,
    /// Free-frame watermarks the pressure level is judged against.
    watermarks: Watermarks,
    /// PSI-style stall accounting: cycles spent in reclaim passes.
    stall_cycles_total: u64,
    /// The swap device (capacity 0 = no swap configured).
    swap: SwapDevice,
    /// Machine-wide THP promotion/demotion counters.
    thp: ThpStats,
    /// Frames resident in this cell, each with a reference count in the
    /// frame table; [`Self::drawn_frames`] adds the frames it holds back.
    drawn: u64,
    /// Where [`Self::release`] gathers the frames whose count reached zero
    /// — of one call, or of every call of a [`Self::batched`] teardown —
    /// until they go back; empty between calls, kept for its allocation.
    released: Vec<Pfn>,
    /// Inside [`Self::batched`]: `release` leaves its frames in `released`.
    batching: bool,
}

impl PhysMemory {
    /// Creates the physical memory of a one-cell machine: a pool of
    /// `total_frames` frames of its own, handed out one frame at a time
    /// out of reserved blocks of up to 2 MiB; freed frames go straight back.
    pub fn new(total_frames: u64, cost: CostModel) -> Self {
        PhysMemory::over(CellPool::new(Arc::new(SharedFramePool::new(total_frames)), None), cost)
    }

    /// Creates the physical-memory view of one SMP *cell*: all frames
    /// drawn from `pool`, which other cells share, out of reserved blocks
    /// of up to 64 frames, and the frames it frees parked for it to take
    /// again first (see the [module docs](self), "One machine").
    /// Watermarks and pressure are judged against the *pool's* free count,
    /// so every cell sees machine-wide pressure.
    pub fn new_cell(pool: Arc<SharedFramePool>, cost: CostModel) -> Self {
        PhysMemory::over(CellPool::new(pool, Some(Vec::new())), cost)
    }

    fn over(pool: CellPool, cost: CostModel) -> Self {
        let chunks = (pool.shared.total_frames() as usize).div_ceil(TABLE_CHUNK);
        PhysMemory {
            watermarks: Watermarks::for_total(pool.shared.total_frames()),
            table: std::iter::repeat_with(|| None).take(chunks).collect(),
            pool,
            cost,
            pins: HashMap::new(),
            frames_allocated_total: 0,
            pages_copied_total: 0,
            stall_cycles_total: 0,
            swap: SwapDevice::new(0),
            thp: ThpStats::default(),
            drawn: 0,
            released: Vec::new(),
            batching: false,
        }
    }

    /// Frames this cell currently holds out of the pool (resident, or held
    /// back: parked or in its reserved block). The machine-wide
    /// conservation check sums this across cells against the pool's free
    /// count.
    pub fn drawn_frames(&self) -> u64 {
        self.drawn + self.pool.held_back()
    }

    /// Attaches a swap device of `slots` one-page slots (replacing the
    /// default zero-capacity device). Boot-time only: swapping an active
    /// device out from under live swap entries would orphan them.
    pub fn set_swap_capacity(&mut self, slots: u64) {
        assert_eq!(
            self.swap.used_slots(),
            0,
            "cannot resize a swap device holding pages"
        );
        self.swap = SwapDevice::new(slots);
    }

    /// The swap device.
    pub fn swap(&self) -> &SwapDevice {
        &self.swap
    }

    /// The swap device, mutably (slot refcounting during fork/unshare).
    pub fn swap_mut(&mut self) -> &mut SwapDevice {
        &mut self.swap
    }

    /// Writes one page out: reserves a slot holding `stamp`, charging the
    /// bitmap scan and the device write. Crosses
    /// [`fpr_faults::FaultSite::SwapSlotAlloc`]; on `Err` nothing changed.
    pub fn swap_out_page(&mut self, stamp: u64, cycles: &mut Cycles) -> MemResult<u64> {
        let PhysMemory { swap, cost, .. } = self;
        swap.alloc_slot(stamp, cycles, cost)
    }

    /// Reads slot `slot` back into a fresh frame on a major fault.
    ///
    /// Order matters for transactionality: the device read (crossing
    /// [`fpr_faults::FaultSite::SwapIn`]) and the frame allocation
    /// (crossing [`fpr_faults::FaultSite::FrameAlloc`]) both happen
    /// before any state mutates, so either failure leaves the address
    /// space, the device, and the frame pool untouched. The slot
    /// reference is still held on success; the caller drops it once the
    /// PTE points at the new frame.
    pub(crate) fn swap_in_frame(&mut self, slot: u64, cycles: &mut Cycles) -> MemResult<Pfn> {
        let stamp = {
            let PhysMemory { swap, cost, .. } = self;
            swap.read_slot(slot, cycles, cost)?
        };
        fpr_faults::cross(FaultSite::FrameAlloc).map_err(|_| MemError::OutOfMemory)?;
        let pfn = self.take_frame(cycles)?;
        self.hand_out(pfn, stamp);
        Ok(pfn)
    }

    /// Returns the active cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of frames currently free: the pool's free count plus the
    /// frames this cell holds back.
    pub fn free_frames(&self) -> u64 {
        self.pool.shared.free_frames() + self.pool.held_back()
    }

    /// Total number of frames in the machine.
    pub fn total_frames(&self) -> u64 {
        self.pool.shared.total_frames()
    }

    /// Number of frames currently in use *by this cell*: the frames
    /// drawn from the pool minus those it holds back — i.e. exactly the
    /// frames carrying live metadata — so the per-cell invariant (PTE
    /// references = used frames) holds however many cells share the pool.
    pub fn used_frames(&self) -> u64 {
        self.drawn
    }

    /// The active free-frame watermarks.
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// The current pressure level, judging free frames against the
    /// watermarks. Costs nothing: it is a pure read.
    pub fn pressure(&self) -> PressureLevel {
        let free = self.free_frames();
        if free >= self.watermarks.high {
            PressureLevel::None
        } else if free >= self.watermarks.low {
            PressureLevel::Low
        } else if free >= self.watermarks.min {
            PressureLevel::High
        } else {
            PressureLevel::Critical
        }
    }

    /// Frames a reclaim pass should free to clear pressure: the gap from
    /// the current free count up to the high watermark (zero when free).
    pub fn reclaim_target(&self) -> u64 {
        self.watermarks.high.saturating_sub(self.free_frames())
    }

    /// Records a PSI-style memory stall: `cycles` spent waiting on
    /// reclaim instead of making progress.
    pub fn note_stall(&mut self, cycles: u64) {
        self.stall_cycles_total += cycles;
    }

    /// Cumulative cycles recorded as memory-pressure stalls.
    pub fn stall_cycles_total(&self) -> u64 {
        self.stall_cycles_total
    }

    /// Gives back every frame the cell holds back — its parked frames and
    /// the rest of its reserved block — under one acquisition of the pool:
    /// the cell then draws exactly the frames it holds.
    pub fn drain(&mut self) {
        self.pool.drain();
    }

    /// One frame, charged `frame_alloc`: the cell's last parked one, or
    /// its reserved block's next.
    #[inline]
    fn take_frame(&mut self, cycles: &mut Cycles) -> MemResult<Pfn> {
        let pfn = self.pool.take_one()?;
        self.drawn += 1;
        cycles.charge(self.cost.frame_alloc);
        Ok(pfn)
    }

    /// Takes a reference on each frame of `runs` in entry order, or with
    /// `DROP` drops one and gathers in `freed` the frames whose count that
    /// brings to zero, in the order it does. Every frame must be one this
    /// cell holds, a count above zero. A run without holes goes a piece at a
    /// time, each piece the part of it that lies in one chunk of the table,
    /// and one check of a piece's counts says whether they all are held;
    /// where one is not, the frames before it are done and the call stops,
    /// saying how many frames came before it in all. A run with holes goes
    /// in one slice if it can ([`Self::holed`]). Inlined into its callers:
    /// called, it costs an unbroken node's `retain` and `release` ≈ 10 %.
    #[inline(always)]
    fn each_run<'r, const DROP: bool>(
        table: &mut [Option<Box<FrameChunk>>],
        runs: impl IntoIterator<Item: Into<Run<'r>>>,
        freed: &mut Vec<Pfn>,
    ) -> Result<(), u64> {
        // Frames gone through; `Err` from the first that was not held on,
        // and nothing is done after it.
        let mut done: Result<u64, u64> = Ok(0);
        runs.into_iter().for_each(|run| {
            let Ok(before) = done else { return };
            let run = run.into();
            let went = match run.holed() {
                false => Self::each_piece::<DROP>(table, run.frames, freed),
                true => Self::holed::<DROP>(table, &run, freed),
            };
            done = went.map(|n| before + n).map_err(|n| before + n);
        });
        done.map(|_| ())
    }

    /// [`Self::each_run`]'s step on a range of frames: `Ok` with how many
    /// it went through, or `Err` with how many came before the first frame
    /// not held.
    #[inline(always)]
    fn each_piece<const DROP: bool>(
        table: &mut [Option<Box<FrameChunk>>],
        Range { start: mut pfn, end }: Range<u64>,
        freed: &mut Vec<Pfn>,
    ) -> Result<u64, u64> {
        if end - pfn == 1 {
            // A run of one, as a scattered node's are and a hole's frame
            // is: a slice the compiler knows the length of, for what a
            // frame cost before there were runs.
            let (c, i) = table_slot(Pfn(pfn));
            return match table.get_mut(c).and_then(|chunk| chunk.as_deref_mut()) {
                Some(chunk) if chunk.refs[i] > 0 => {
                    step::<DROP>(pfn, std::slice::from_mut(&mut chunk.refs[i]), freed);
                    Ok(1)
                }
                _ => Err(0),
            };
        }
        let mut frames = 0;
        while pfn < end {
            let (c, i) = table_slot(Pfn(pfn));
            let Some(chunk) = table.get_mut(c).and_then(|chunk| chunk.as_deref_mut()) else { break };
            let n = ((end - pfn) as usize).min(TABLE_CHUNK - i);
            let refs = &mut chunk.refs[i..i + n];
            let held = match refs.iter().fold(false, |unheld, &r| unheld | (r == 0)) {
                false => n,
                true => refs.iter().position(|&r| r == 0).expect("a count of zero"),
            };
            step::<DROP>(pfn, &mut refs[..held], freed);
            frames += held as u64;
            if held < n {
                break;
            }
            pfn += n as u64;
        }
        if pfn < end { Err(frames) } else { Ok(frames) }
    }

    /// [`Self::each_run`]'s step on a run with holes, in one slice: one
    /// step over the whole of it, and then, hole by hole, the hole's count
    /// in the slice moved back and its own frame stepped singly. Where a
    /// frame of the run is not held, or a hole's — or a hole holds one of
    /// the run's frames, which would be counted twice over — what was
    /// stepped is stepped back and the run goes a piece at a time instead
    /// ([`Run::pieces`]), which stops where an entry-by-entry walk would.
    /// The frames a drop frees go to `freed` in entry order, the run's own
    /// among the holes'. Kept out of line: every caller of `each_run` would
    /// carry a copy of it.
    #[inline(never)]
    fn holed<const DROP: bool>(table: &mut [Option<Box<FrameChunk>>], run: &Run, freed: &mut Vec<Pfn>) -> Result<u64, u64> {
        let Range { start: first, end } = run.frames;
        let (undo, redo) = if DROP { (1, u32::MAX) } else { (u32::MAX, 1) };
        // How many counts of the slice the step left at zero, a hole's
        // place's until it is stepped back: if none is left, no frame of the
        // run is freed.
        let (mut unheld, mut zeros) = (false, 0u32);
        let stepped = Self::each_count(table, first..end, |_, refs| {
            refs.iter_mut().for_each(|r| {
                (unheld, *r) = (unheld | (*r == 0), r.wrapping_add(redo));
                zeros += (*r == 0) as u32;
            })
        });
        let (tail, mut done, mut whole) = (freed.len(), 0, stepped && !unheld);
        for (k, own) in run.holes().filter(|_| whole) {
            let Some(r) = Self::count_mut(table, own).filter(|r| **r > 0 && !run.frames.contains(&own)) else {
                whole = false;
                break;
            };
            *r = r.wrapping_add(redo);
            if DROP && *r == 0 {
                freed.push(Pfn(own));
            }
            let r = Self::count_mut(table, first + k as u64).expect("held above");
            zeros -= (*r == 0) as u32;
            *r = r.wrapping_add(undo);
            done += 1;
        }
        if !whole {
            for (k, own) in run.holes().take(done) {
                let r = Self::count_mut(table, own).expect("stepped above");
                *r = r.wrapping_add(undo);
                let r = Self::count_mut(table, first + k as u64).expect("held above");
                *r = r.wrapping_add(redo);
            }
            freed.truncate(tail);
            Self::each_count(table, first..end, |_, refs| refs.iter_mut().for_each(|r| *r = r.wrapping_add(undo)));
            return run.clone().pieces().try_fold(0, |n, piece| match Self::each_piece::<DROP>(table, piece, freed) {
                Ok(m) => Ok(n + m),
                Err(m) => Err(n + m),
            });
        }
        if DROP && zeros > 0 {
            let holes_freed = freed.len();
            Self::each_count(table, first..end, |pfn, refs| gather(pfn, refs, freed));
            if holes_freed > tail && freed.len() > holes_freed {
                // A hole's frame was freed at its last entry.
                let entry = |pfn: &Pfn| match run.frames.contains(&pfn.0) {
                    true => pfn.0 - first,
                    false => run.holes().filter(|&(_, own)| own == pfn.0).last().expect("a hole's frame").0 as u64,
                };
                freed[tail..].sort_unstable_by_key(entry);
            }
        }
        Ok(end - first)
    }

    /// The count of frame `pfn`, if its chunk of the table is there.
    #[inline(always)]
    fn count_mut(table: &mut [Option<Box<FrameChunk>>], pfn: u64) -> Option<&mut u32> {
        let (c, i) = table_slot(Pfn(pfn));
        table.get_mut(c).and_then(|chunk| chunk.as_deref_mut()).map(|chunk| &mut chunk.refs[i])
    }

    /// Hands `f` the counts of `frames`, the part in one chunk of the table
    /// at a time, with the first frame of each part; `false` if a part's
    /// chunk holds none.
    fn each_count(table: &mut [Option<Box<FrameChunk>>], frames: Range<u64>, mut f: impl FnMut(u64, &mut [u32])) -> bool {
        let mut pfn = frames.start;
        while pfn < frames.end {
            let (c, i) = table_slot(Pfn(pfn));
            let Some(chunk) = table.get_mut(c).and_then(|chunk| chunk.as_deref_mut()) else { return false };
            let n = ((frames.end - pfn) as usize).min(TABLE_CHUNK - i);
            f(pfn, &mut chunk.refs[i..i + n]);
            pfn += n as u64;
        }
        true
    }

    /// Takes a reference on each frame of `runs`, and then on each swap
    /// slot of `slots`: what the entries of a run of PTEs a fork copies or
    /// an unshare privatizes hold, frames in one pass and slots in a second
    /// on the swap device. All or nothing: at a frame this cell does not
    /// hold, or a slot the device does not, it gives back what it took and
    /// reports [`MemError::NotMapped`].
    pub(crate) fn retain<'r>(
        &mut self,
        runs: impl IntoIterator<Item: Into<Run<'r>>, IntoIter: Clone>,
        slots: impl IntoIterator<Item = u64, IntoIter: Clone>,
    ) -> MemResult<()> {
        let runs = runs.into_iter().map(Into::into);
        let mut none = Vec::new();
        let mut taken = match Self::each_run::<false>(&mut self.table, runs.clone(), &mut none) {
            Ok(()) => {
                return self.swap.retain(slots).inspect_err(|_| {
                    Self::each_run::<true>(&mut self.table, runs, &mut none).expect("frames just retained");
                })
            }
            Err(taken) => taken,
        };
        // The runs cut short behind the frames just taken.
        let taken = runs.map(|run: Run| {
            let n = (run.frames.end - run.frames.start).min(taken);
            taken -= n;
            run.cut(n)
        });
        Self::each_run::<true>(&mut self.table, taken, &mut none).expect("frames just retained");
        debug_assert!(none.is_empty(), "a retain frees nothing");
        Err(MemError::NotMapped)
    }

    /// The one way a reference is dropped: takes one from each frame of
    /// `runs` and frees those that reach zero, returning how many that was
    /// — in entry order: the order of `runs`, and within a run ascending
    /// but for its holes; then the same on the swap device for the slots of
    /// `slots`. Each frame freed is charged `frame_free`, and
    /// `mem.frame_free` is counted once for the call.
    ///
    /// The frames freed go back together: those of the call, or, inside
    /// [`Self::batched`], those of the whole teardown at its end. A teardown
    /// hands in a leaf node's frames at a time, so the pool is taken at most
    /// once a teardown, not once a node or a frame. On a one-cell machine,
    /// frames that are exactly the last ones the reserved block handed out
    /// go back into the block without the pool, and any others go to the
    /// pool under one acquisition; a cell that shares its pool parks them,
    /// taking the pool once if that overfills the stack. The buddy's state
    /// after a set of frees does not depend on their order, so batching
    /// moves no later allocation.
    ///
    /// Stops at the first frame this cell does not hold, or slot the device
    /// does not, and reports [`MemError::NotMapped`]; the references
    /// dropped before it stay dropped and their frames freed.
    pub(crate) fn release<'r>(
        &mut self,
        runs: impl IntoIterator<Item: Into<Run<'r>>>,
        slots: impl IntoIterator<Item = u64>,
        cycles: &mut Cycles,
    ) -> MemResult<u64> {
        let mut released = std::mem::take(&mut self.released);
        let before = released.len();
        let result = Self::each_run::<true>(&mut self.table, runs, &mut released);
        let freed = (released.len() - before) as u64;
        if freed > 0 {
            self.drawn -= freed;
            cycles.charge_n(self.cost.frame_free, freed);
            Counter::FrameFree.add(freed);
        }
        self.released = released;
        if !self.batching {
            self.give_back_released();
        }
        result.map_err(|_| MemError::NotMapped)?;
        self.swap.release(slots)?;
        Ok(freed)
    }

    /// Runs `op` — a teardown — with the frames every [`Self::release`] in
    /// it frees held until it ends, and gives them back then, together. The
    /// charges and the `mem.frame_free` count stay each release's, and
    /// nothing takes a frame in between, so batching moves no cycle, count
    /// or later frame.
    pub(crate) fn batched<T>(&mut self, op: impl FnOnce(&mut Self) -> T) -> T {
        self.batching = true;
        let out = op(self);
        self.batching = false;
        self.give_back_released();
        out
    }

    /// Gives back the frames [`Self::release`] gathered, if any.
    fn give_back_released(&mut self) {
        if !self.released.is_empty() {
            self.pool.give_back(&self.released);
            self.released.clear();
        }
    }

    /// Machine-wide THP promotion/demotion counters.
    pub fn thp_stats(&self) -> ThpStats {
        self.thp
    }

    /// Records a successful huge-page promotion.
    pub(crate) fn note_thp_promoted(&mut self) {
        self.thp.promoted += 1;
    }

    /// Records a huge-page demotion (split back to small PTEs).
    pub(crate) fn note_thp_demoted(&mut self) {
        self.thp.demoted += 1;
    }

    /// Records a promotion attempt that fell back to small pages.
    pub(crate) fn note_thp_promote_failed(&mut self) {
        self.thp.failed += 1;
    }

    /// Allocates a naturally aligned, physically contiguous run of 512
    /// zeroed frames for one 2 MiB huge mapping, returning the head frame.
    /// Every frame of the run has its own reference count and can be freed
    /// individually (demotion hands each page its own PTE), so the run is
    /// taken with [`BuddyAllocator::alloc_run`], not out of the reserved
    /// block or the parked frames — contiguity is the whole point.
    ///
    /// Fails with [`MemError::Fragmented`] when no aligned run exists; the
    /// caller falls back to small pages. No fault site is crossed here —
    /// promotion attempts are guarded by `pt_promote` at the call site and
    /// a natural allocation failure is already an absorbed fallback.
    pub(crate) fn alloc_zeroed_huge_run(&mut self, cycles: &mut Cycles) -> MemResult<Pfn> {
        let order = HUGE_PAGES.trailing_zeros() as usize;
        let run = self.pool.alloc_aligned_run(order)?;
        self.drawn += run.len() as u64;
        // One global-allocator acquisition for the whole run, then the
        // data cost of zeroing 2 MiB.
        cycles.charge(self.cost.frame_alloc);
        cycles.charge_n(self.cost.page_zero, HUGE_PAGES);
        let head = run[0];
        debug_assert_eq!(head.0 % HUGE_PAGES, 0, "huge run must be aligned");
        for pfn in run {
            self.set_frame(pfn, 0);
        }
        self.count_allocs(HUGE_PAGES);
        Ok(head)
    }

    /// Increments the reference count of each frame in `[head, head+n)`,
    /// or of none if the cell does not hold them all.
    pub(crate) fn inc_ref_run(&mut self, head: Pfn, n: u64) -> MemResult<()> {
        self.retain(std::iter::once(head.0..head.0 + n), [])
    }

    /// Decrements the reference count of each frame in `[head, head+n)`,
    /// freeing those that reach zero.
    pub(crate) fn dec_ref_run(&mut self, head: Pfn, n: u64, cycles: &mut Cycles) -> MemResult<()> {
        self.release(std::iter::once(head.0..head.0 + n), [], cycles).map(|_| ())
    }

    /// Allocates a zeroed frame with reference count 1.
    pub fn alloc_zeroed(&mut self, cycles: &mut Cycles) -> MemResult<Pfn> {
        let pfn = self.fill_frame(0, cycles)?;
        self.count_allocs(1);
        Ok(pfn)
    }

    /// A frame with reference count 1 holding `content`: zero-filled if
    /// that is 0, charged `page_zero`, else read from its file, charged
    /// `file_read_page` — a demand fill's frame. Crosses
    /// [`FaultSite::FrameAlloc`] before it takes the frame. The allocation
    /// statistics are left to [`Self::count_allocs`], which a run of fills
    /// calls once for all of its frames.
    #[inline]
    pub(crate) fn fill_frame(&mut self, content: u64, cycles: &mut Cycles) -> MemResult<Pfn> {
        fpr_faults::cross(FaultSite::FrameAlloc).map_err(|_| MemError::OutOfMemory)?;
        let pfn = self.take_frame(cycles)?;
        cycles.charge(if content == 0 { self.cost.page_zero } else { self.cost.file_read_page });
        self.set_frame(pfn, content);
        Ok(pfn)
    }

    /// Counts `n` frames handed out in the allocation statistics.
    pub(crate) fn count_allocs(&mut self, n: u64) {
        self.frames_allocated_total += n;
        Counter::FrameAlloc.add(n);
    }

    /// A COW break's copy of `src`, which someone else holds too: a new
    /// frame holding `value`, the write that broke it, and one reference
    /// less on `src` — a frame's [`Self::copy_frames`], [`Self::dec_ref`]
    /// and the write in one visit to each frame's slot of the table.
    /// Crosses [`FaultSite::FrameAlloc`] first and checks `src` is held
    /// before taking a frame, as `copy_frames` does; on `Err` nothing
    /// changed.
    pub(crate) fn break_cow(&mut self, src: Pfn, value: u64, cycles: &mut Cycles) -> MemResult<Pfn> {
        fpr_faults::cross(FaultSite::FrameAlloc).map_err(|_| MemError::OutOfMemory)?;
        let (chunk, i) = self.held_mut(src)?;
        debug_assert!(chunk.refs[i] > 1, "a COW break copies a frame someone else holds");
        // Above one, so it frees nothing; given back if no frame comes.
        chunk.refs[i] -= 1;
        let pfn = self.take_frame(cycles).inspect_err(|_| {
            let (c, i) = table_slot(src);
            self.table[c].as_mut().expect("held above").refs[i] += 1;
        })?;
        cycles.charge(self.cost.page_copy);
        self.hand_out(pfn, value);
        self.pages_copied_total += 1;
        Counter::PageCopy.incr();
        Ok(pfn)
    }

    /// An eager fork's copies of the `n` frames of `runs`, ranges of frame
    /// numbers: a new frame for each, holding what it holds, in order. The
    /// frames are the ones, and in the order, that copying one at a time
    /// would take, each charged a frame's allocation and `page_copy`; the
    /// [`FaultSite::FrameAlloc`] crossings — one a frame — are made
    /// together before any frame is taken ([`fpr_faults::cross_n`]), and
    /// the allocation and copy statistics counted together after. On `Err`
    /// — a crossing refused, a source frame not held, the pool dry — the
    /// frames taken are given back.
    pub(crate) fn copy_frames(
        &mut self,
        runs: impl IntoIterator<Item = Range<u64>>,
        n: u64,
        cycles: &mut Cycles,
    ) -> MemResult<Vec<Pfn>> {
        fpr_faults::cross_n(FaultSite::FrameAlloc, n).map_err(|_| MemError::OutOfMemory)?;
        let mut copies = Vec::with_capacity(n as usize);
        let copied = runs.into_iter().flatten().try_for_each(|src| {
            let content = self.content(Pfn(src))?;
            let pfn = self.take_frame(cycles)?;
            cycles.charge(self.cost.page_copy);
            self.set_frame(pfn, content);
            copies.push(pfn);
            Ok(())
        });
        let taken = copies.len() as u64;
        self.count_allocs(taken);
        self.pages_copied_total += taken;
        Counter::PageCopy.add(taken);
        if let Err(e) = copied {
            self.release(copies.iter().map(|pfn| pfn.0..pfn.0 + 1), [], cycles).expect("frames just taken");
            return Err(e);
        }
        debug_assert_eq!(taken, n, "n counts the frames of the runs");
        Ok(copies)
    }

    /// Enters the frame just taken from the pool into the frame table with
    /// one reference and `content`.
    fn set_frame(&mut self, pfn: Pfn, content: u64) {
        let (chunk, i) = table_slot(pfn);
        let chunk = self.table[chunk].get_or_insert_with(|| {
            Box::new(FrameChunk { refs: [0; TABLE_CHUNK], content: [0; TABLE_CHUNK] })
        });
        debug_assert_eq!(chunk.refs[i], 0, "frame handed out twice");
        chunk.refs[i] = 1;
        chunk.content[i] = content;
    }

    /// [`Self::set_frame`] plus the single-frame allocation statistics.
    fn hand_out(&mut self, pfn: Pfn, content: u64) {
        self.set_frame(pfn, content);
        self.count_allocs(1);
    }

    /// The chunk and in-chunk index of a frame this cell holds.
    fn held(&self, pfn: Pfn) -> MemResult<(&FrameChunk, usize)> {
        let (chunk, i) = table_slot(pfn);
        match self.table.get(chunk) {
            Some(Some(chunk)) if chunk.refs[i] > 0 => Ok((chunk, i)),
            _ => Err(MemError::NotMapped),
        }
    }

    /// [`Self::held`], for update.
    fn held_mut(&mut self, pfn: Pfn) -> MemResult<(&mut FrameChunk, usize)> {
        let (chunk, i) = table_slot(pfn);
        match self.table.get_mut(chunk) {
            Some(Some(chunk)) if chunk.refs[i] > 0 => Ok((chunk, i)),
            _ => Err(MemError::NotMapped),
        }
    }

    /// Decrements the reference count, freeing the frame when it reaches
    /// zero. Returns `true` if the frame was freed.
    pub fn dec_ref(&mut self, pfn: Pfn, cycles: &mut Cycles) -> MemResult<bool> {
        self.release(std::iter::once(pfn.0..pfn.0 + 1), [], cycles).map(|freed| freed == 1)
    }

    /// Takes a kernel pin on `pfn`: one additional reference held by a
    /// kernel-side owner (e.g. the exec image cache) rather than a PTE.
    /// The invariant checker accounts pins separately from mappings.
    pub fn pin(&mut self, pfn: Pfn) -> MemResult<()> {
        self.inc_ref_run(pfn, 1)?;
        *self.pins.entry(pfn.0).or_insert(0) += 1;
        Ok(())
    }

    /// Drops one kernel pin from `pfn`, freeing the frame if that was the
    /// last reference. Returns `true` if the frame was freed.
    pub fn unpin(&mut self, pfn: Pfn, cycles: &mut Cycles) -> MemResult<bool> {
        let n = self.pins.get_mut(&pfn.0).ok_or(MemError::NotMapped)?;
        debug_assert!(*n > 0);
        *n -= 1;
        if *n == 0 {
            self.pins.remove(&pfn.0);
        }
        self.dec_ref(pfn, cycles)
    }

    /// Current kernel-pin count of `pfn` (zero if unpinned).
    pub fn pin_count(&self, pfn: Pfn) -> u32 {
        self.pins.get(&pfn.0).copied().unwrap_or(0)
    }

    /// Snapshot of every pinned frame and its pin count, sorted by PFN.
    pub fn pinned(&self) -> Vec<(Pfn, u32)> {
        let mut v: Vec<(Pfn, u32)> = self.pins.iter().map(|(&p, &n)| (Pfn(p), n)).collect();
        v.sort_by_key(|(p, _)| p.0);
        v
    }

    /// Returns the current reference count of `pfn`.
    pub fn refs(&self, pfn: Pfn) -> MemResult<u32> {
        self.held(pfn).map(|(chunk, i)| chunk.refs[i])
    }

    /// The reference counts of the frames of `pfns`, ascending, zero for a
    /// frame this cell does not hold: the frame table read a chunk at a
    /// time, for a pass over many frames in order.
    pub fn refs_in(&self, pfns: Range<u64>) -> impl Iterator<Item = u32> + '_ {
        let (first, last) = (pfns.start as usize, pfns.end as usize);
        (first / TABLE_CHUNK..last.div_ceil(TABLE_CHUNK)).flat_map(move |c| {
            let refs: &[u32; TABLE_CHUNK] = match self.table.get(c) {
                Some(Some(chunk)) => &chunk.refs,
                _ => &[0; TABLE_CHUNK],
            };
            let at = |pfn: usize| pfn.clamp(c * TABLE_CHUNK, (c + 1) * TABLE_CHUNK) - c * TABLE_CHUNK;
            refs[at(first)..at(last)].iter().copied()
        })
    }

    /// Reads the logical content stamp of `pfn`.
    pub fn content(&self, pfn: Pfn) -> MemResult<u64> {
        self.held(pfn).map(|(chunk, i)| chunk.content[i])
    }

    /// Overwrites the logical content stamp of `pfn`.
    ///
    /// The caller (the fault handler / address space) is responsible for
    /// ensuring the frame is exclusively owned or the write is to a shared
    /// mapping; this is a raw store.
    pub(crate) fn write_content(&mut self, pfn: Pfn, content: u64) -> MemResult<()> {
        let (chunk, i) = self.held_mut(pfn)?;
        chunk.content[i] = content;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_trace::metrics;
    use crate::addr::PT_ENTRIES;
    use crate::addr::Vpn;
    use crate::page_table::{LeafNode, PageTable};
    use crate::pte::{Pte, PteFlags};
    use std::cell::Cell;

    thread_local! {
        /// Times this thread has taken the pool's lock to give frames back.
        pub(super) static POOL_FREES: Cell<u64> = const { Cell::new(0) };
        /// Times this thread has taken the pool's lock for anything.
        pub(super) static POOL_LOCKS: Cell<u64> = const { Cell::new(0) };
    }

    fn pm(frames: u64) -> (PhysMemory, Cycles) {
        (PhysMemory::new(frames, CostModel::default()), Cycles::new())
    }

    /// `frames` as runs of one.
    fn ones(frames: &[Pfn]) -> Vec<Range<u64>> {
        frames.iter().map(|pfn| pfn.0..pfn.0 + 1).collect()
    }

    #[test]
    fn alloc_zeroed_has_zero_content_and_one_ref() {
        let (mut p, mut c) = pm(16);
        let f = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.content(f), Ok(0));
        assert_eq!(p.refs(f), Ok(1));
        assert_eq!(p.used_frames(), 1);
        assert!(c.total() > 0);
    }

    #[test]
    fn copy_frames_duplicates_content_independently_in_allocation_order() {
        let (mut p, mut c) = pm(16);
        let src: Vec<Pfn> = (0..3).map(|_| p.alloc_zeroed(&mut c).unwrap()).collect();
        for (k, &pfn) in src.iter().enumerate() {
            p.write_content(pfn, 40 + k as u64).unwrap();
        }
        // What three frames taken one at a time would be: the twin's.
        let (mut twin, mut tc) = pm(16);
        (0..3).for_each(|_| _ = twin.alloc_zeroed(&mut tc).unwrap());
        let one_by_one: Vec<Pfn> = (0..3).map(|_| twin.alloc_zeroed(&mut tc).unwrap()).collect();
        let before = c.total();
        let copies = p.copy_frames(ones(&src), 3, &mut c).unwrap();
        assert_eq!(copies, one_by_one);
        assert_eq!(c.total() - before, 3 * (p.cost().frame_alloc + p.cost().page_copy));
        let contents: Vec<_> = copies.iter().map(|&pfn| p.content(pfn)).collect();
        assert_eq!(contents, [Ok(40), Ok(41), Ok(42)]);
        p.write_content(src[0], 7).unwrap();
        assert_eq!(p.content(copies[0]), Ok(40), "copy must not alias source");
        assert_eq!((p.pages_copied_total, p.used_frames()), (3, 6));
        // A pool that runs dry part-way gives back what it took.
        let (mut small, mut sc) = pm(5);
        let src: Vec<Pfn> = (0..3).map(|_| small.alloc_zeroed(&mut sc).unwrap()).collect();
        assert_eq!(small.copy_frames(ones(&src), 3, &mut sc), Err(MemError::OutOfMemory));
        assert_eq!(small.used_frames(), 3);
    }

    #[test]
    fn refcount_frees_only_at_zero() {
        let (mut p, mut c) = pm(16);
        let f = p.alloc_zeroed(&mut c).unwrap();
        p.inc_ref_run(f, 1).unwrap();
        assert_eq!(p.refs(f), Ok(2));
        assert_eq!(p.dec_ref(f, &mut c), Ok(false));
        assert_eq!(p.used_frames(), 1);
        assert_eq!(p.dec_ref(f, &mut c), Ok(true));
        assert_eq!(p.used_frames(), 0);
        assert_eq!(p.refs(f), Err(MemError::NotMapped));
    }

    #[test]
    fn exhaustion_propagates() {
        let (mut p, mut c) = pm(2);
        p.alloc_zeroed(&mut c).unwrap();
        p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.alloc_zeroed(&mut c), Err(MemError::OutOfMemory));
    }

    #[test]
    fn freed_frame_is_reusable() {
        let (mut p, mut c) = pm(1);
        let f = p.alloc_zeroed(&mut c).unwrap();
        p.write_content(f, 9).unwrap();
        p.dec_ref(f, &mut c).unwrap();
        let g = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.content(g), Ok(0), "recycled frame must be zeroed");
    }

    #[test]
    fn pin_holds_frame_alive_past_last_unmap_ref() {
        let (mut p, mut c) = pm(16);
        let f = p.alloc_zeroed(&mut c).unwrap();
        p.write_content(f, 0xCAFE).unwrap();
        p.pin(f).unwrap();
        assert_eq!(p.refs(f), Ok(2));
        assert_eq!(p.pin_count(f), 1);
        // The mapping reference goes away; the pin keeps the content.
        assert_eq!(p.dec_ref(f, &mut c), Ok(false));
        assert_eq!(p.content(f), Ok(0xCAFE));
        assert_eq!(p.pinned(), vec![(f, 1)]);
        assert_eq!(p.unpin(f, &mut c), Ok(true), "last pin frees");
        assert_eq!(p.pin_count(f), 0);
        assert_eq!(p.used_frames(), 0);
    }

    #[test]
    fn huge_run_is_aligned_contiguous_and_individually_freeable() {
        let (mut p, mut c) = pm(2048);
        let head = p.alloc_zeroed_huge_run(&mut c).unwrap();
        assert_eq!(head.0 % HUGE_PAGES, 0);
        assert_eq!(p.used_frames(), HUGE_PAGES);
        for i in 0..HUGE_PAGES {
            assert_eq!(p.refs(Pfn(head.0 + i)), Ok(1));
            assert_eq!(p.content(Pfn(head.0 + i)), Ok(0));
        }
        // Free half individually; the rest survives.
        for i in 0..HUGE_PAGES / 2 {
            assert_eq!(p.dec_ref(Pfn(head.0 + i), &mut c), Ok(true));
        }
        assert_eq!(p.used_frames(), HUGE_PAGES / 2);
        p.dec_ref_run(Pfn(head.0 + HUGE_PAGES / 2), HUGE_PAGES / 2, &mut c)
            .unwrap();
        assert_eq!(p.used_frames(), 0);
    }

    #[test]
    fn huge_run_fails_fragmented_not_oom_when_frames_exist() {
        let (mut p, mut c) = pm(1024);
        // Take one small frame: the window at 0 is now fragmented.
        let a = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(a.0, 0, "buddy hands out frame 0 first");
        // The second 512-aligned window is still whole.
        match p.alloc_zeroed_huge_run(&mut c) {
            Ok(h) => assert_eq!(h.0, 512),
            Err(e) => panic!("second window should be free: {e:?}"),
        }
        // 511 free frames remain, none forming an aligned run: the mapping
        // must fall back to small pages rather than fail, so the error
        // distinguishes fragmentation from true exhaustion.
        let err = p.alloc_zeroed_huge_run(&mut c).unwrap_err();
        assert!(matches!(err, MemError::Fragmented | MemError::OutOfMemory));
        assert!(p.alloc_zeroed(&mut c).is_ok(), "small pages still available");
    }

    #[test]
    fn thp_stats_accumulate() {
        let (mut p, _c) = pm(16);
        assert_eq!(p.thp_stats(), ThpStats::default());
        p.note_thp_promoted();
        p.note_thp_promoted();
        p.note_thp_demoted();
        p.note_thp_promote_failed();
        let s = p.thp_stats();
        assert_eq!((s.promoted, s.demoted, s.failed), (2, 1, 1));
    }

    #[test]
    fn watermarks_scale_with_total_and_stay_ordered() {
        for total in [4, 64, 256, 4096, 262_144] {
            let w = Watermarks::for_total(total);
            assert!(w.min >= 1, "total={total}");
            assert!(w.min <= w.low && w.low <= w.high, "total={total}");
            assert!(w.high <= total, "total={total}");
        }
    }

    #[test]
    fn pressure_level_tracks_free_frames_across_watermarks() {
        let (mut p, mut c) = pm(256);
        let w = p.watermarks();
        assert_eq!(p.pressure(), PressureLevel::None);
        assert_eq!(p.reclaim_target(), 0);
        let mut frames = Vec::new();
        while p.free_frames() >= w.high {
            frames.push(p.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(p.pressure(), PressureLevel::Low);
        assert!(p.reclaim_target() > 0);
        while p.free_frames() >= w.low {
            frames.push(p.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(p.pressure(), PressureLevel::High);
        while p.free_frames() >= w.min {
            frames.push(p.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(p.pressure(), PressureLevel::Critical);
        for f in frames {
            p.dec_ref(f, &mut c).unwrap();
        }
        assert_eq!(p.pressure(), PressureLevel::None);
    }

    #[test]
    fn pressure_levels_are_ordered() {
        assert!(PressureLevel::None < PressureLevel::Low);
        assert!(PressureLevel::Low < PressureLevel::High);
        assert!(PressureLevel::High < PressureLevel::Critical);
    }

    #[test]
    fn stall_accounting_accumulates() {
        let (mut p, _c) = pm(16);
        assert_eq!(p.stall_cycles_total(), 0);
        p.note_stall(100);
        p.note_stall(250);
        assert_eq!(p.stall_cycles_total(), 350);
    }

    /// A cell of its own over a fresh pool of `frames`, as an SMP machine
    /// builds each of its cells.
    fn shared(frames: u64) -> (PhysMemory, Cycles) {
        (PhysMemory::new_cell(Arc::new(SharedFramePool::new(frames)), CostModel::default()), Cycles::new())
    }

    #[test]
    fn a_shared_cell_and_a_one_cell_machine_charge_the_same() {
        let (mut one, mut c1) = pm(4_096);
        let (mut cell, mut c2) = shared(4_096);
        let mut rng = fpr_rng::Rng::seed_from_u64(0xC057);
        let mut held: [Vec<Pfn>; 2] = [Vec::new(), Vec::new()];
        for step in 0..2_000 {
            if held[0].is_empty() || rng.gen_bool(0.55) {
                held[0].push(one.alloc_zeroed(&mut c1).unwrap());
                held[1].push(cell.alloc_zeroed(&mut c2).unwrap());
            } else {
                let k = rng.gen_index(held[0].len());
                let [a, b] = held.each_mut().map(|frames| frames.swap_remove(k));
                assert_eq!((one.dec_ref(a, &mut c1), cell.dec_ref(b, &mut c2)), (Ok(true), Ok(true)));
            }
            assert_eq!(c1.total(), c2.total(), "step {step}");
            assert_eq!(one.used_frames(), cell.used_frames(), "step {step}");
        }
        assert_eq!(c1.total() % (one.cost().frame_alloc + one.cost().page_zero), 0);
    }

    #[test]
    fn a_shared_cell_takes_back_the_frame_it_freed_without_the_pool() {
        let (mut p, mut c) = shared(1_024);
        let f = p.alloc_zeroed(&mut c).unwrap();
        p.write_content(f, 9).unwrap();
        assert_eq!(p.dec_ref(f, &mut c), Ok(true));
        let locks = POOL_LOCKS.with(Cell::get);
        let before = c.total();
        assert_eq!(p.alloc_zeroed(&mut c), Ok(f), "the frame it parked");
        assert_eq!(POOL_LOCKS.with(Cell::get), locks, "no pool acquisition");
        assert_eq!(c.total() - before, p.cost().frame_alloc + p.cost().page_zero);
        assert_eq!(p.content(f), Ok(0), "recycled frame must be zeroed");
    }

    #[test]
    fn held_back_frames_count_as_free_and_drain_gives_them_back() {
        let (mut p, mut c) = shared(64);
        let f = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.free_frames(), 63, "reserved frames are still free");
        assert_eq!(p.used_frames(), 1);
        p.dec_ref(f, &mut c).unwrap();
        assert_eq!(p.used_frames(), 0);
        assert_eq!((p.drawn_frames(), p.free_frames()), (64, 64), "parked frames are still free");
        p.drain();
        assert_eq!(p.drawn_frames(), 0);
        assert_eq!(p.pool.shared.free_frames(), 64, "drain returned everything to buddy");
    }

    #[test]
    fn dry_pool_with_nothing_parked_is_oom() {
        let (mut p, mut c) = shared(8);
        // The first reservation holds back the whole pool; the block then
        // serves every remaining frame.
        for _ in 0..8 {
            p.alloc_zeroed(&mut c).unwrap();
        }
        assert_eq!(p.pool.shared.free_frames(), 0);
        assert_eq!(p.alloc_zeroed(&mut c), Err(MemError::OutOfMemory));
        assert_eq!(p.used_frames(), 8);
    }

    #[test]
    fn an_overfull_stack_gives_all_but_a_batch_back_to_the_pool() {
        let (mut p, mut c) = shared(1_024);
        let held: Vec<Pfn> = (0..2 * SHARED_BATCH + 1).map(|_| p.alloc_zeroed(&mut c).unwrap()).collect();
        let frees = POOL_FREES.with(Cell::get);
        for &f in &held {
            p.dec_ref(f, &mut c).unwrap();
        }
        // The 129th free overfilled the stack (> 2 × 64): under one
        // acquisition all but the 64 parked first went back, with the rest
        // of the reserved block.
        assert_eq!(POOL_FREES.with(Cell::get), frees + 1);
        assert_eq!(p.pool.parked.as_deref(), Some(&held[..SHARED_BATCH as usize]));
        assert_eq!((p.drawn_frames(), p.free_frames()), (SHARED_BATCH, 1_024));
    }

    /// Σ cell.drawn + pool.free == pool.total — the conservation law the
    /// SMP driver asserts at quiesce.
    fn assert_conserved(pool: &SharedFramePool, cells: &[&PhysMemory]) {
        let drawn: u64 = cells.iter().map(|c| c.drawn_frames()).sum();
        assert_eq!(
            drawn + pool.free_frames(),
            pool.total_frames(),
            "shared-pool frame conservation"
        );
    }

    #[test]
    fn shared_cells_draw_from_one_pool_and_conserve_frames() {
        let pool = Arc::new(SharedFramePool::new(1024));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut b = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        let fa = a.alloc_zeroed(&mut c).unwrap();
        let fb = b.alloc_zeroed(&mut c).unwrap();
        assert_ne!(fa, fb, "cells never hand out the same frame");
        assert_eq!(a.used_frames(), 1);
        assert_eq!(b.used_frames(), 1);
        // Each cell's first allocation reserved a block of 64.
        assert_eq!(a.drawn_frames(), SHARED_BATCH);
        assert_conserved(&pool, &[&a, &b]);
        a.dec_ref(fa, &mut c).unwrap();
        b.dec_ref(fb, &mut c).unwrap();
        assert_eq!(a.used_frames(), 0);
        assert_eq!(b.used_frames(), 0);
        assert_conserved(&pool, &[&a, &b]);
        a.drain();
        b.drain();
        assert_eq!(a.drawn_frames(), 0);
        assert_eq!(pool.free_frames(), 1024, "everything returned");
    }

    #[test]
    fn a_one_cell_run_takes_the_pool_lock_once_a_reserved_block() {
        let (mut p, mut c) = pm(4_096);
        let locks = POOL_LOCKS.with(Cell::get);
        for pfn in 0..1_000 {
            assert_eq!(p.alloc_zeroed(&mut c), Ok(Pfn(pfn)));
        }
        assert_eq!(POOL_LOCKS.with(Cell::get) - locks, 2, "blocks 0..512 and 512..1024");
        assert_eq!(c.total(), 1_000 * (p.cost().frame_alloc + p.cost().page_zero));
        // Held back, the block's last 24 frames still count as drawn and
        // as free.
        assert_eq!((p.drawn_frames(), p.used_frames(), p.free_frames()), (1_024, 1_000, 3_096));
        // A release settles the block under the acquisition of its batch.
        let frees = POOL_FREES.with(Cell::get);
        assert_eq!(p.dec_ref(Pfn(7), &mut c), Ok(true));
        assert_eq!(POOL_LOCKS.with(Cell::get) - locks, 3);
        assert_eq!(POOL_FREES.with(Cell::get), frees + 1);
        assert_eq!((p.drawn_frames(), p.pool.held_back()), (999, 0));
        assert_eq!(p.pool.shared.free_frames(), 3_097);
        assert_eq!(p.alloc_zeroed(&mut c), Ok(Pfn(7)), "the frame the buddy would hand out next");
    }

    #[test]
    fn a_one_cell_block_takes_back_the_frames_it_handed_out_last_without_the_pool() {
        let (mut p, mut c) = pm(4_096);
        let older: Vec<Pfn> = (0..100).map(|_| p.alloc_zeroed(&mut c).unwrap()).collect();
        let tail: Vec<Pfn> = (0..30).map(|_| p.alloc_zeroed(&mut c).unwrap()).collect();
        // The last 30 handed out, in any order, in two releases of one
        // teardown: back into the block, and handed out again in order.
        let locks = POOL_LOCKS.with(Cell::get);
        let (cycles, counted) = (c.total(), metrics::snapshot().counter("mem.frame_free"));
        let freed = p.batched(|p| [p.release(ones(&tail[20..]), [], &mut c), p.release(ones(&tail[..20]), [], &mut c)]);
        assert_eq!(freed, [Ok(10), Ok(20)]);
        assert_eq!(c.total() - cycles, 30 * p.cost().frame_free);
        assert_eq!(metrics::snapshot().counter("mem.frame_free") - counted, 30);
        assert_eq!(POOL_LOCKS.with(Cell::get), locks, "no pool acquisition");
        assert_eq!((p.used_frames(), p.drawn_frames()), (100, 512));
        let again: Vec<Pfn> = (0..30).map(|_| p.alloc_zeroed(&mut c).unwrap()).collect();
        assert_eq!(again, tail);
        assert_eq!(POOL_LOCKS.with(Cell::get), locks, "no pool acquisition");
        // The tail and an older frame: the pool, once for the teardown.
        let frees = POOL_FREES.with(Cell::get);
        let freed = p.batched(|p| [p.release(ones(&older[3..4]), [], &mut c), p.release(ones(&tail), [], &mut c)]);
        assert_eq!(freed, [Ok(1), Ok(30)]);
        assert_eq!(POOL_FREES.with(Cell::get), frees + 1);
        assert_eq!(p.alloc_zeroed(&mut c), Ok(older[3]), "the frame the buddy would hand out next");
        p.release(ones(&older), [], &mut c).unwrap();
        p.drain();
        assert_eq!((p.drawn_frames(), p.pool.shared.free_frames()), (0, 4_096), "everything back");
    }

    #[test]
    fn two_shared_cells_hold_back_a_block_each_and_conserve_frames() {
        let pool = Arc::new(SharedFramePool::new(3_000));
        let mut cells = [0, 1].map(|_| PhysMemory::new_cell(Arc::clone(&pool), CostModel::free()));
        let mut held: [Vec<Pfn>; 2] = [Vec::new(), Vec::new()];
        let mut rng = fpr_rng::Rng::seed_from_u64(0xCE11);
        let (mut c, mut both) = (Cycles::new(), 0);
        for step in 0..4_000 {
            let i = rng.gen_index(2);
            if held[i].is_empty() || rng.gen_bool(0.6) {
                match cells[i].alloc_zeroed(&mut c) {
                    Ok(pfn) => held[i].push(pfn),
                    Err(e) => assert_eq!(e, MemError::OutOfMemory, "step {step}"),
                }
            } else {
                let pfn = held[i].swap_remove(rng.gen_index(held[i].len()));
                assert_eq!(cells[i].dec_ref(pfn, &mut c), Ok(true), "step {step}");
            }
            assert!(cells.iter().all(|cell| cell.pool.held_back() <= 3 * SHARED_BATCH), "step {step}");
            both += u64::from(cells.iter().all(|cell| cell.pool.left.start < cell.pool.left.end));
            assert_conserved(&pool, &[&cells[0], &cells[1]]);
        }
        assert!(both > 100, "both cells held a block back at once: {both} steps");
        let [a, b] = &held;
        assert!(a.iter().all(|pfn| !b.contains(pfn)), "cells never hand out the same frame");
        for (cell, frames) in cells.iter_mut().zip(held) {
            frames.into_iter().for_each(|pfn| _ = cell.dec_ref(pfn, &mut c).unwrap());
            cell.drain();
            assert_eq!(cell.drawn_frames(), 0);
        }
        assert_eq!(pool.free_frames(), 3_000, "everything returned");
    }

    #[test]
    fn retain_takes_every_reference_or_none_and_release_gives_them_back() {
        // 2 500 frames: three chunks of the frame table.
        let (mut p, mut c) = pm(2500);
        let frames: Vec<Pfn> = (0..2500).map(|_| p.alloc_zeroed(&mut c).unwrap()).collect();
        // A batch that wanders between the chunks, one frame in it twice.
        let batch = [frames[7], frames[8], frames[2047], frames[1024], frames[8], frames[2499]];
        p.retain(ones(&batch), []).unwrap();
        let refs = |p: &PhysMemory| batch.map(|pfn| p.refs(pfn).unwrap());
        assert_eq!(refs(&p), [2, 3, 2, 2, 3, 2]);
        // One frame the cell does not hold, two thirds in: nothing is taken.
        p.dec_ref(frames[1500], &mut c).unwrap();
        let used = p.used_frames();
        assert_eq!(p.retain(ones(&[frames[7], frames[2047], frames[1500], frames[8]]), []), Err(MemError::NotMapped));
        assert_eq!(p.inc_ref_run(frames[1498], 4), Err(MemError::NotMapped));
        assert_eq!(refs(&p), [2, 3, 2, 2, 3, 2]);
        assert_eq!((p.refs(frames[1498]), p.refs(frames[1501])), (Ok(1), Ok(1)));
        // Released, the batch is as it was and nothing was freed.
        assert_eq!(p.release(ones(&batch), [], &mut c), Ok(0));
        assert_eq!(refs(&p), [1; 6]);
        assert_eq!(p.used_frames(), used);
    }

    #[test]
    fn shared_cell_exhaustion_is_machine_wide() {
        let pool = Arc::new(SharedFramePool::new(SHARED_BATCH));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut b = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        // Cell A reserves the whole pool as one block and uses it up.
        let mut held = Vec::new();
        for _ in 0..SHARED_BATCH {
            held.push(a.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(pool.free_frames(), 0);
        // Cell B sees a dry machine (nothing of its own is parked and it
        // cannot reach into A's).
        assert_eq!(b.alloc_zeroed(&mut c), Err(MemError::OutOfMemory));
        // A freeing one frame parks it; only a drain returns it to the pool
        // where B can see it.
        a.dec_ref(held.pop().unwrap(), &mut c).unwrap();
        assert_eq!(pool.free_frames(), 0);
        a.drain();
        assert_eq!(pool.free_frames(), 1);
        let f = b.alloc_zeroed(&mut c).unwrap();
        b.dec_ref(f, &mut c).unwrap();
        assert_conserved(&pool, &[&a, &b]);
    }

    #[test]
    fn shared_cell_watermarks_track_pool_pressure() {
        let pool = Arc::new(SharedFramePool::new(256));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        assert_eq!(a.pressure(), PressureLevel::None);
        let mut held = Vec::new();
        while a.free_frames() > 2 {
            held.push(a.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(
            a.pressure(),
            PressureLevel::Critical,
            "pool-wide pressure visible from the cell"
        );
        for f in held {
            a.dec_ref(f, &mut c).unwrap();
        }
    }

    #[test]
    fn shared_huge_run_draws_aligned_frames_from_pool() {
        let pool = Arc::new(SharedFramePool::new(2 * HUGE_PAGES));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        let head = a.alloc_zeroed_huge_run(&mut c).unwrap();
        assert_eq!(head.0 % HUGE_PAGES, 0);
        assert_eq!(a.used_frames(), HUGE_PAGES);
        a.dec_ref_run(head, HUGE_PAGES, &mut c).unwrap();
        assert_conserved(&pool, &[&a]);
    }

    /// A cell holding frames `0..n`, each once.
    fn holding(n: u64) -> (PhysMemory, Cycles) {
        let (mut p, mut c) = pm(2 * TABLE_CHUNK as u64);
        for pfn in 0..n {
            assert_eq!(p.alloc_zeroed(&mut c), Ok(Pfn(pfn)), "the buddy hands out low frames first");
        }
        (p, c)
    }

    fn counts(p: &PhysMemory, frames: Range<u64>) -> Vec<MemResult<u32>> {
        frames.map(|pfn| p.refs(Pfn(pfn))).collect()
    }

    /// What the per-frame loop did, frame by frame: the frames freed, in
    /// order, their charge, and the `mem.frame_free` count.
    fn freeing(p: &mut PhysMemory, runs: &[Range<u64>], c: &mut Cycles) -> (MemResult<u64>, u64, u64) {
        let (cycles, counted) = (c.total(), metrics::snapshot().counter("mem.frame_free"));
        let freed = p.release(runs.to_vec(), [], c);
        let counted = metrics::snapshot().counter("mem.frame_free") - counted;
        (freed, c.total() - cycles, counted)
    }

    #[test]
    fn a_run_across_a_chunk_boundary_is_taken_and_dropped_whole() {
        let (mut p, mut c) = holding(1040);
        let run = 1020..1031;
        assert_eq!(table_slot(Pfn(run.start)).0 + 1, table_slot(Pfn(run.end)).0, "two chunks");
        p.retain([run.clone()], []).unwrap();
        assert_eq!(counts(&p, run.clone()), [Ok(2); 11]);
        assert_eq!((p.refs(Pfn(1019)), p.refs(Pfn(1031))), (Ok(1), Ok(1)));
        assert_eq!(p.release([run.clone()], [], &mut c), Ok(0));
        assert_eq!(counts(&p, run.clone()), [Ok(1); 11]);
        assert_eq!(p.release([run.clone()], [], &mut c), Ok(11));
        assert_eq!(counts(&p, run), [Err(MemError::NotMapped); 11]);
        assert_eq!(p.used_frames(), 1040 - 11);
    }

    #[test]
    fn an_unheld_frame_inside_a_run_stops_retain_before_and_release_after_the_prefix() {
        let (mut p, mut c) = holding(1040);
        assert_eq!(p.dec_ref(Pfn(1025), &mut c), Ok(true));
        let runs = [1010..1015, 1020..1030];
        let before = counts(&p, 1000..1040);
        assert_eq!(p.retain(runs.clone(), []), Err(MemError::NotMapped));
        assert_eq!(counts(&p, 1000..1040), before, "retain is all or nothing");
        // Release drops and frees 1010..1015 and 1020..1025, then stops.
        let (freed, charged, counted) = freeing(&mut p, &runs, &mut c);
        assert_eq!(freed, Err(MemError::NotMapped));
        assert_eq!((charged, counted), (10 * p.cost().frame_free, 10));
        let gone = |frames: Range<u64>| counts(&p, frames).iter().all(|r| *r == Err(MemError::NotMapped));
        assert!(gone(1010..1015) && gone(1020..1026));
        assert_eq!(counts(&p, 1026..1030), [Ok(1); 4]);
        assert_eq!(p.used_frames(), 1040 - 11);
    }

    #[test]
    fn frames_a_release_frees_go_back_in_the_order_they_came_together() {
        // On a cell that shares its pool, the order the frames were freed
        // in is the order they are parked in.
        let (mut p, mut c) = shared(2 * TABLE_CHUNK as u64);
        for pfn in 0..1040 {
            assert_eq!(p.alloc_zeroed(&mut c), Ok(Pfn(pfn)), "the buddy hands out low frames first");
        }
        p.retain(std::iter::once(1020..1022), []).unwrap();
        let runs = [1030..1034, 1018..1026];
        let (freed, charged, counted) = freeing(&mut p, &runs, &mut c);
        // 1020 and 1021 were held twice: they stay.
        let expect: Vec<Pfn> = [1030, 1031, 1032, 1033, 1018, 1019, 1022, 1023, 1024, 1025].map(Pfn).to_vec();
        assert_eq!((freed, charged, counted), (Ok(10), 10 * p.cost().frame_free, 10));
        assert_eq!(p.pool.parked, Some(expect));
        assert_eq!(counts(&p, 1020..1022), [Ok(1); 2]);
        // On a one-cell machine, the pool is taken once for the call.
        let (mut p, mut c) = holding(1040);
        let frees = POOL_FREES.with(Cell::get);
        assert_eq!(freeing(&mut p, &[900..1001, 1026..1030, 5..6], &mut c).0, Ok(106));
        assert_eq!(POOL_FREES.with(Cell::get), frees + 1);
    }

    /// A leaf node holding `frames` at slots `0..`, with a different mix of
    /// flags on each entry.
    fn leaf_of(frames: impl IntoIterator<Item = u64>) -> std::sync::Arc<LeafNode> {
        let flags = [
            PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::DIRTY,
            PteFlags::PRESENT | PteFlags::ACCESSED,
            PteFlags::PRESENT | PteFlags::COW | PteFlags::ACCESSED | PteFlags::DIRTY,
        ];
        let mut leaf = LeafNode::new();
        let node = std::sync::Arc::get_mut(&mut leaf).unwrap();
        for (j, pfn) in frames.into_iter().enumerate() {
            node.set(j, Some(Pte::new(Pfn(pfn), flags[j % 3])));
        }
        leaf
    }

    #[test]
    fn a_leaf_hands_its_frames_out_as_runs_whatever_their_flags() {
        let (mut p, mut c) = holding(1040);
        // Dirty, accessed and COW-marked in turn: still one run, across a
        // chunk boundary.
        let leaf = leaf_of(1020..1031);
        assert!(leaf.frame_runs(0..PT_ENTRIES, false).ranges().eq(std::iter::once(1020..1031)));
        assert!(leaf.frame_runs(3..5, false).ranges().eq(std::iter::once(1023..1025)));
        p.retain(leaf.frame_runs(0..PT_ENTRIES, false), []).unwrap();
        assert_eq!(counts(&p, 1020..1031), [Ok(2); 11]);
        // Alternating frames: runs of one.
        let alternating = leaf_of((0..100).map(|k| 2 * k));
        let runs: Vec<Range<u64>> = alternating.frame_runs(0..PT_ENTRIES, false).ranges().collect();
        assert_eq!(runs, (0..100).map(|k| 2 * k..2 * k + 1).collect::<Vec<_>>());
        assert_eq!(freeing(&mut p, &runs, &mut c).0, Ok(100));
        // A run cut short anywhere still yields every frame once, in order.
        let frames: Vec<u64> = (0..40).chain(600..700).chain([5, 3]).chain(800..900).collect();
        let mixed = leaf_of(frames.iter().copied());
        assert_eq!(mixed.frame_runs(0..PT_ENTRIES, false).ranges().flatten().collect::<Vec<_>>(), frames);
        for leaf in [leaf, alternating, mixed] {
            LeafNode::retire(leaf);
        }
    }

    /// Frames of the COW-child leaves below: three chunks of the table.
    const UNIVERSE: u64 = 3 * TABLE_CHUNK as u64;

    /// A leaf shaped like a COW child's: entries `0..512` hold the parent's
    /// run `base..base + 512`, COW-marked, but for `k` of them — the pages
    /// the child wrote — which hold frames of their own, writable. Around
    /// that, what real leaves hold too: a few swap entries and empty slots,
    /// a written page left COW-marked, an unwritten one writable, and
    /// sometimes a hole frame that is not unrelated (in the parent's run,
    /// or another hole's). One hole frame is in a chunk the run is not in.
    fn cow_child_leaf(k: usize, rng: &mut fpr_rng::Rng) -> std::sync::Arc<LeafNode> {
        let base = rng.gen_below(UNIVERSE - PT_ENTRIES as u64);
        let mut holes: Vec<usize> = (0..PT_ENTRIES).collect();
        rng.shuffle(&mut holes);
        holes.truncate(k);
        // Unrelated frames: outside the parent's run, distinct.
        let mut others: Vec<u64> = (0..UNIVERSE).filter(|f| !(base..base + PT_ENTRIES as u64).contains(f)).collect();
        rng.shuffle(&mut others);
        if let Some(far) = others.iter().position(|&f| f / TABLE_CHUNK as u64 != base / TABLE_CHUNK as u64) {
            others.swap(0, far);
        }
        let (cow, written) = (PteFlags::PRESENT | PteFlags::COW, PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::DIRTY);
        let mut leaf = LeafNode::new();
        let node = std::sync::Arc::get_mut(&mut leaf).unwrap();
        for j in 0..PT_ENTRIES {
            let pte = match holes.iter().position(|&h| h == j) {
                Some(n) => {
                    let own = match rng.gen_below(40) {
                        0 => rng.gen_below(UNIVERSE),
                        _ => others[n],
                    };
                    Pte::new(Pfn(own), if rng.gen_bool(0.02) { cow } else { written })
                }
                None => Pte::new(Pfn(base + j as u64), if rng.gen_bool(0.02) { written } else { cow }),
            };
            match rng.gen_below(100) {
                0 => node.set(j, Some(Pte::swap_entry(j as u64))),
                1 => node.set(j, None),
                _ => node.set(j, Some(pte)),
            };
        }
        leaf
    }

    /// What retain and release must do to the counts of `refs` (0: not
    /// held), taking the entries' frames one at a time in entry order.
    /// `retain` takes all or none; `release` stops at the first frame not
    /// held, and returns the frames freed, in order.
    fn by_entry(refs: &mut [u32], frames: &[u64], drop: bool) -> (Result<(), ()>, Vec<Pfn>) {
        let mut freed = Vec::new();
        for (n, &f) in frames.iter().enumerate() {
            if refs[f as usize] == 0 {
                if !drop {
                    frames[..n].iter().for_each(|&f| refs[f as usize] -= 1);
                }
                return (Err(()), freed);
            }
            match drop {
                false => refs[f as usize] += 1,
                true => {
                    refs[f as usize] -= 1;
                    if refs[f as usize] == 0 {
                        freed.push(Pfn(f));
                    }
                }
            }
        }
        (Ok(()), freed)
    }

    /// A one-cell machine holding every frame of [`UNIVERSE`], each one to
    /// three times, and the count it holds each by.
    fn universe(rng: &mut fpr_rng::Rng) -> (PhysMemory, Cycles, Vec<u32>) {
        let (mut p, mut c) = pm(4 * TABLE_CHUNK as u64);
        let mut refs = vec![0u32; UNIVERSE as usize];
        for f in 0..UNIVERSE {
            assert_eq!(p.alloc_zeroed(&mut c), Ok(Pfn(f)), "the buddy hands out low frames first");
            let extra = rng.gen_below(3);
            (0..extra).for_each(|_| p.inc_ref_run(Pfn(f), 1).unwrap());
            refs[f as usize] = 1 + extra as u32;
        }
        (p, c, refs)
    }

    /// The frames `leaf.frame_runs` hands out for `range`, one by one.
    fn run_frames(leaf: &LeafNode, range: Range<usize>) -> Vec<u64> {
        leaf.frame_runs(range, false).ranges().flatten().collect()
    }

    /// Holds `leaf`'s runs to its entries taken one at a time, in entry
    /// order, on a few ranges of it: the frames the runs hand out, and
    /// what `retain` and `release` of them do to `p` — the result, the
    /// frames freed and their order, the charge, the count and every count
    /// after — against [`by_entry`] on `refs`, the counts `p` holds.
    /// Sometimes a frame the leaf maps is not held any more.
    fn judge(p: &mut PhysMemory, c: &mut Cycles, refs: &mut [u32], leaf: &LeafNode, rng: &mut fpr_rng::Rng, what: &str) {
        if rng.gen_bool(0.3) {
            let j = rng.gen_index(PT_ENTRIES);
            if let Some(pte) = leaf.get(j).filter(|pte| pte.is_present()) {
                while refs[pte.pfn.0 as usize] > 0 {
                    p.dec_ref(pte.pfn, c).unwrap();
                    refs[pte.pfn.0 as usize] -= 1;
                }
            }
        }
        for step in 0..6 {
            let what = format!("{what}, step {step}");
            let (lo, hi) = match rng.gen_below(3) {
                0 => (0, PT_ENTRIES),
                _ => {
                    let (a, b) = (rng.gen_index(PT_ENTRIES + 1), rng.gen_index(PT_ENTRIES + 1));
                    (a.min(b), a.max(b))
                }
            };
            let frames: Vec<u64> = (lo..hi).filter_map(|j| leaf.get(j)).filter(|pte| pte.is_present()).map(|pte| pte.pfn.0).collect();
            assert_eq!(run_frames(leaf, lo..hi), frames, "{what}: the runs' frames, {lo}..{hi}");
            let drop = rng.gen_bool(0.5);
            let (expect, expect_freed) = by_entry(refs, &frames, drop);
            let (cycles, counted) = (c.total(), metrics::snapshot().counter("mem.frame_free"));
            let (got, freed) = match drop {
                false => (p.retain(leaf.frame_runs(lo..hi, false), []).map(|_| 0), Vec::new()),
                true => p.batched(|p| {
                    let got = p.release(leaf.frame_runs(lo..hi, false), [], c);
                    (got, p.released.clone())
                }),
            };
            assert_eq!(got.is_ok(), expect.is_ok(), "{what}: retain {}: the result", !drop);
            assert_eq!(freed, expect_freed, "{what}: the frames freed, in order");
            if let Ok(n) = got {
                assert_eq!(n, expect_freed.len() as u64, "{what}: the count freed");
            }
            let charged = expect_freed.len() as u64;
            assert_eq!(c.total() - cycles, charged * p.cost().frame_free, "{what}: the charge");
            assert_eq!(metrics::snapshot().counter("mem.frame_free") - counted, charged, "{what}: the count");
            let held: Vec<u32> = (0..UNIVERSE).map(|f| p.refs(Pfn(f)).unwrap_or(0)).collect();
            assert!(held == refs, "{what}: the counts after (where the call stopped)");
        }
    }

    #[test]
    fn a_cow_childs_leaf_is_retained_and_released_as_entry_by_entry() {
        let mut rng = fpr_rng::Rng::seed_from_u64(0xC0_70C4);
        for round in 0..40 {
            for k in [0, 1, 32, 255, 511] {
                let what = format!("round {round}, {k} holes");
                let (mut p, mut c, mut refs) = universe(&mut rng);
                let leaf = cow_child_leaf(k, &mut rng);
                judge(&mut p, &mut c, &mut refs, &leaf, &mut rng, &what);
                LeafNode::retire(leaf);
            }
        }
    }

    const COW: PteFlags = PteFlags(PteFlags::PRESENT.0 | PteFlags::COW.0);
    const WRITTEN: PteFlags = PteFlags(PteFlags::PRESENT.0 | PteFlags::WRITABLE.0 | PteFlags::DIRTY.0);

    /// The first frame of a run of `n` in [`UNIVERSE`].
    fn run_base(rng: &mut fpr_rng::Rng, n: usize) -> u64 {
        rng.gen_below(UNIVERSE - n as u64 + 1)
    }

    /// A node of its own holding `base + j` at every slot `j`, COW-marked:
    /// what a fork leaves a child of a populated heap.
    fn unbroken(base: u64, flags: PteFlags) -> std::sync::Arc<LeafNode> {
        let mut leaf = LeafNode::new();
        let node = std::sync::Arc::get_mut(&mut leaf).unwrap();
        let (stop, written, refused) = node.fill_run(0..PT_ENTRIES, |j| Ok(Pte::new(Pfn(base + j as u64), flags)));
        assert_eq!((stop, written, refused), (PT_ENTRIES, PT_ENTRIES as u64, Ok(())));
        leaf
    }

    /// Frames handed out in turn from a reserved block, as page copies and
    /// swap-ins take them — consecutive, but now and then from another
    /// block.
    fn block_frames(rng: &mut fpr_rng::Rng) -> impl FnMut() -> u64 + '_ {
        let mut next = run_base(rng, PT_ENTRIES);
        move || {
            if rng.gen_bool(0.02) {
                next = run_base(rng, PT_ENTRIES);
            }
            next = (next + 1) % UNIVERSE;
            next
        }
    }

    /// What a process does to a node's entries one at a time, `n` times at
    /// random slots: a COW fault that copies (a frame of the block's) or
    /// reuses (the frame it had), a swap-out — whose slot number may be
    /// the frame the entry held, or the next one's — and a swap-in to a
    /// new frame or the one it had, and an unmap of one entry.
    fn scribble(node: &mut LeafNode, n: usize, rng: &mut fpr_rng::Rng) {
        let mut fresh_rng = rng.fork_stream();
        let mut fresh = block_frames(&mut fresh_rng);
        for _ in 0..n {
            let j = rng.gen_index(PT_ENTRIES);
            let old = node.get(j);
            let pte = match (rng.gen_below(6), old) {
                (0, Some(pte)) if pte.is_present() => Some(Pte::new(Pfn(fresh()), WRITTEN)),
                (1, Some(pte)) if pte.is_present() => Some(Pte::new(pte.pfn, WRITTEN)),
                (2, Some(pte)) if pte.is_present() => Some(Pte::swap_entry(pte.pfn.0 + rng.gen_below(2))),
                (3, Some(pte)) if !pte.is_present() => Some(Pte::new(Pfn(fresh()), WRITTEN)),
                (4, Some(pte)) if !pte.is_present() => Some(Pte::new(Pfn(pte.pfn.0 % UNIVERSE), WRITTEN)),
                (5, _) => None,
                (_, old) => old,
            };
            node.set(j, pte);
        }
    }

    /// A leaf built by each way a leaf's words are written, and then, half
    /// the time, written to entry by entry ([`scribble`]).
    fn leaves_written_every_way(rng: &mut fpr_rng::Rng) -> Vec<(&'static str, std::sync::Arc<LeafNode>)> {
        let (mut cycles, cost) = (Cycles::new(), CostModel::default());
        let mut leaves = Vec::new();

        // `fill_run` over a node whose frames come from two reserved
        // blocks, going past entries there were and stopping at a swap
        // entry or a refusal, then filling on behind it.
        let mut leaf = LeafNode::new();
        let node = std::sync::Arc::get_mut(&mut leaf).unwrap();
        let (a, b, cut) = (run_base(rng, PT_ENTRIES), run_base(rng, PT_ENTRIES), rng.gen_index(PT_ENTRIES));
        for _ in 0..rng.gen_below(4) {
            node.set(rng.gen_index(PT_ENTRIES), Some(Pte::new(Pfn(run_base(rng, 1)), WRITTEN)));
        }
        if rng.gen_bool(0.5) {
            let j = rng.gen_index(PT_ENTRIES);
            node.set(j, Some(Pte::swap_entry(a + j as u64)));
        }
        let refuse = rng.gen_bool(0.3).then(|| rng.gen_index(PT_ENTRIES));
        let frame = |j: usize| if j < cut { a + j as u64 } else { b + (j - cut) as u64 };
        let mut at = 0;
        while at < PT_ENTRIES {
            let (stop, ..) = node.fill_run(at..PT_ENTRIES, |j| match Some(j) == refuse {
                true => Err(MemError::OutOfMemory),
                false => Ok(Pte::new(Pfn(frame(j)), WRITTEN)),
            });
            at = stop + 1;
        }
        leaves.push(("fill_run", leaf));

        // `set` as a COW fault's copy and reuse, a swap-out and a swap-in,
        // on a COW child's node.
        let mut leaf = unbroken(run_base(rng, PT_ENTRIES), COW);
        let n = [1, 16, 300][rng.gen_index(3)];
        scribble(std::sync::Arc::get_mut(&mut leaf).unwrap(), n, rng);
        leaves.push(("set", leaf));

        // A partial `clear_run`, once or twice.
        let mut leaf = unbroken(run_base(rng, PT_ENTRIES), WRITTEN);
        for _ in 0..1 + rng.gen_below(2) {
            let (x, y) = (rng.gen_index(PT_ENTRIES + 1), rng.gen_index(PT_ENTRIES + 1));
            std::sync::Arc::get_mut(&mut leaf).unwrap().clear_run(x.min(y)..x.max(y));
        }
        leaves.push(("clear_run", leaf));

        // `demote_block`: a 2 MiB block split into 512 small entries.
        let mut pt = PageTable::new();
        let vpn = Vpn(HUGE_PAGES * (1 + rng.gen_below(8)));
        let head = HUGE_PAGES * rng.gen_below(UNIVERSE / HUGE_PAGES);
        pt.map_huge(vpn, Pte::new(Pfn(head), WRITTEN), 0, &mut cycles, &cost).unwrap();
        pt.demote_block(vpn, &mut cycles, &cost).unwrap();
        let slot = pt.find(vpn).expect("demoted in place");
        leaves.push(("demote_block", std::sync::Arc::clone(pt.leaf_at(slot.1, slot.2))));
        drop(pt);

        // `slide_entries`' move: parts of an unbroken node mapped again in
        // the next node, each its own index shift, the second part right
        // behind the first.
        let mut pt = PageTable::new();
        let from = Vpn(HUGE_PAGES * (1 + rng.gen_below(8)));
        let src = pt.small_node_at(from, None, &mut cycles, &cost).unwrap();
        let base = run_base(rng, PT_ENTRIES);
        pt.fill_run(src, 0..PT_ENTRIES, |j| Ok(Pte::new(Pfn(base + j as u64), WRITTEN))).2.unwrap();
        let to = Vpn(from.0 + HUGE_PAGES + rng.gen_below(64));
        let mut lo = rng.gen_index(128);
        let mut dest = to;
        for _ in 0..2 {
            let hi = (lo + rng.gen_index(200)).min(PT_ENTRIES);
            let n = (hi - lo) as u64;
            let found = pt.find(dest);
            pt.map_moved(src, lo..hi, n, (dest, found), &mut cycles, &cost).unwrap();
            dest = Vpn(dest.0 + n);
            lo = if rng.gen_bool(0.5) { hi } else { (hi + rng.gen_index(40)).min(PT_ENTRIES) };
        }
        let slot = pt.find(to).expect("slid into");
        leaves.push(("slide", std::sync::Arc::clone(pt.leaf_at(slot.1, slot.2))));
        drop(pt);

        // `copy_run`, the COW form: runs of a COW child's node copied,
        // write-protected, into a new one.
        let parent = cow_child_leaf(rng.gen_index(64), rng);
        let mut leaf = LeafNode::new();
        let node = std::sync::Arc::get_mut(&mut leaf).unwrap();
        let cut = rng.gen_index(PT_ENTRIES + 1);
        node.copy_run(&parent, 0..cut, true, |word| word);
        node.copy_run(&parent, cut..PT_ENTRIES, true, |word| word);
        leaves.push(("copy_run", leaf));

        // `copy_run`, the eager form: each present entry's frame a copy
        // from a reserved block.
        let mut leaf = LeafNode::new();
        let node = std::sync::Arc::get_mut(&mut leaf).unwrap();
        let mut fresh_rng = rng.fork_stream();
        let mut fresh = block_frames(&mut fresh_rng);
        let (x, y) = (rng.gen_index(PT_ENTRIES + 1), rng.gen_index(PT_ENTRIES + 1));
        node.copy_run(&parent, x.min(y)..x.max(y), false, |word| match LeafNode::unpack(word) {
            pte if pte.is_present() => LeafNode::pack(Pte { pfn: Pfn(fresh()), ..pte }),
            _ => word,
        });
        leaves.push(("eager copy_run", leaf));
        LeafNode::retire(parent);

        // `private_copy`: a node two tables share, privatized by one.
        let (mut one, mut two) = (PageTable::new(), PageTable::new());
        let base = HUGE_PAGES * (1 + rng.gen_below(8));
        let built = cow_child_leaf(rng.gen_index(64), rng);
        one.install_leaf(base, std::sync::Arc::clone(&built), &mut cycles, &cost);
        two.attach_leaf(base, built, false, &mut cycles, &cost).unwrap();
        let slot = two.find(Vpn(base)).expect("attached");
        two.privatize_at(slot, &mut cycles, &cost).unwrap();
        leaves.push(("private_copy", std::sync::Arc::clone(two.leaf_at(slot.1, slot.2))));
        drop((one, two));

        for (_, leaf) in &mut leaves {
            if rng.gen_bool(0.5) {
                let n = rng.gen_index(40);
                scribble(std::sync::Arc::get_mut(leaf).expect("held by nothing else"), n, rng);
            }
        }
        leaves
    }

    #[test]
    fn a_leaf_written_every_way_hands_out_its_frames_as_entry_by_entry() {
        let mut rng = fpr_rng::Rng::seed_from_u64(0x4_0A4C);
        for round in 0..24 {
            for (how, leaf) in leaves_written_every_way(&mut rng) {
                let what = format!("round {round}, {how}");
                assert_eq!(leaf.check(), Ok(()), "{what}: the maps against the words");
                let (mut p, mut c, mut refs) = universe(&mut rng);
                judge(&mut p, &mut c, &mut refs, &leaf, &mut rng, &what);
                LeafNode::retire(leaf);
            }
        }
    }

    #[test]
    fn a_huge_block_is_one_run_on_either_kind_of_cell() {
        for (mut p, mut c) in [pm(4 * HUGE_PAGES), shared(4 * HUGE_PAGES)] {
            p.alloc_zeroed(&mut c).unwrap();
            let head = p.alloc_zeroed_huge_run(&mut c).unwrap();
            let frees = POOL_FREES.with(Cell::get);
            let block = head.0..head.0 + HUGE_PAGES;
            let (freed, charged, counted) = freeing(&mut p, std::slice::from_ref(&block), &mut c);
            assert_eq!((freed, charged, counted), (Ok(HUGE_PAGES), HUGE_PAGES * p.cost().frame_free, HUGE_PAGES));
            assert_eq!(p.used_frames(), 1);
            // One acquisition for the block: all of it back on a one-cell
            // machine, all but the first 64 parked on a shared cell.
            assert_eq!(POOL_FREES.with(Cell::get), frees + 1);
            assert_eq!(p.free_frames(), 4 * HUGE_PAGES - 1);
            if let Some(parked) = &p.pool.parked {
                assert!(parked.iter().map(|pfn| pfn.0).eq(head.0..head.0 + SHARED_BATCH));
            }
        }
    }
}
