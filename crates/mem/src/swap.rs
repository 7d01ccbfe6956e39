//! Simulated swap device: the reclaim tier below the shrinkers.
//!
//! The paper's overcommit critique is that fork forces a choice between
//! strict commit accounting (spurious `ENOMEM`) and overcommit plus the
//! OOM killer. PR 5's shrinkers soften that, but once the caches are
//! empty the kernel still jumps straight to killing. This module adds the
//! missing tier: anonymous pages can be *evicted to a backing store*,
//! priced through the cycle model, and recovered on fault — so the killer
//! fires only when swap is full *and* reclaim fails.
//!
//! ## Model
//!
//! The device is `capacity` slots of one page each, tracked by a free
//! bitmap (find-first-zero allocation, like Linux's swap map). Each used
//! slot stores the page's content stamp plus a reference count: a slot is
//! shared exactly like a COW frame when fork copies a swap entry, and is
//! freed when the last reference swap-ins or unmaps. Slot references
//! follow the same discipline as frame references — one per *distinct*
//! page-table leaf node holding the entry, so leaves shared by on-demand
//! fork count once.
//!
//! ## Fault injection
//!
//! Two of the three swap fault sites live here:
//! [`FaultSite::SwapSlotAlloc`] is crossed before a slot is reserved, and
//! [`FaultSite::SwapIn`] before a slot is read back (modelling a device
//! I/O error — the read path's caller turns it into SIGBUS-style process
//! death, never kernel failure). The third, [`FaultSite::SwapOut`], is
//! crossed by the kernel's swap-out pass before any mutation.
//!
//! ## Refault detection
//!
//! Every slot records the device's monotonic swap-out counter at birth.
//! A swap-in of a young slot (evicted within the last half-capacity
//! swap-outs) is a *refault*: the page was still in its owner's working
//! set. A sliding window over the most recent swap-ins turns the refault
//! rate into a boolean [`SwapDevice::thrashing`] signal that throttles
//! warm-pool refill and inflates retry backoff.

use crate::cost::{CostModel, Cycles};
use crate::error::{MemError, MemResult};
use fpr_faults::FaultSite;
use std::collections::BTreeMap;

/// Sliding-window length (swap-ins) over which the refault rate is
/// judged; at least `THRASH_MIN_SAMPLES` samples are required before
/// [`SwapDevice::thrashing`] can report true.
const THRASH_WINDOW: u32 = 32;

/// Minimum swap-ins observed before the thrash signal can assert.
const THRASH_MIN_SAMPLES: u32 = 8;

/// One used slot: the page's content stamp, its reference count, and the
/// swap-out epoch it was written at (for refault detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    stamp: u64,
    refs: u32,
    birth: u64,
}

/// Cumulative swap-device statistics (monotonic counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapStats {
    /// Pages written out to the device.
    pub swap_outs: u64,
    /// Pages read back on fault.
    pub swap_ins: u64,
    /// Swap-ins of recently evicted slots (working-set misses).
    pub refaults: u64,
    /// Injected device I/O errors observed on the read path.
    pub io_errors: u64,
}

/// The simulated swap device.
///
/// A capacity of zero means "no swap configured": every allocation fails
/// with [`MemError::OutOfMemory`] without crossing a fault site, and the
/// kernel's swap tier is inert — byte-identical to the pre-swap kernel.
#[derive(Debug, Clone)]
pub struct SwapDevice {
    /// Slot-occupancy bitmap, one bit per slot (find-first-zero alloc).
    bitmap: Vec<u64>,
    capacity: u64,
    used: u64,
    slots: BTreeMap<u64, Slot>,
    /// Monotonic swap-out counter; slot birth epochs come from it.
    epoch: u64,
    /// Ring of recent swap-ins: bit i of `recent_bits` set = refault.
    recent_bits: u64,
    recent_len: u32,
    stats: SwapStats,
}

impl SwapDevice {
    /// Creates a device with `capacity` one-page slots (0 = no swap).
    pub(crate) fn new(capacity: u64) -> SwapDevice {
        SwapDevice {
            bitmap: vec![0u64; capacity.div_ceil(64) as usize],
            capacity,
            used: 0,
            slots: BTreeMap::new(),
            epoch: 0,
            recent_bits: 0,
            recent_len: 0,
            stats: SwapStats::default(),
        }
    }

    /// True if the device has any capacity at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Total slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Slots currently holding a page.
    pub fn used_slots(&self) -> u64 {
        self.used
    }

    /// Slots currently free.
    pub fn free_slots(&self) -> u64 {
        self.capacity - self.used
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Reserves a free slot and stores `stamp` in it, charging the
    /// bitmap scan plus the device write. Crosses
    /// [`FaultSite::SwapSlotAlloc`] before touching anything, so an
    /// injected failure leaves the device byte-identical.
    pub(crate) fn alloc_slot(&mut self, stamp: u64, cycles: &mut Cycles, cost: &CostModel) -> MemResult<u64> {
        if self.free_slots() == 0 {
            return Err(MemError::OutOfMemory);
        }
        fpr_faults::cross(FaultSite::SwapSlotAlloc).map_err(|_| MemError::OutOfMemory)?;
        let slot = self.find_first_zero().expect("free_slots() > 0");
        self.set_bit(slot);
        self.used += 1;
        self.slots.insert(
            slot,
            Slot {
                stamp,
                refs: 1,
                birth: self.epoch,
            },
        );
        self.epoch += 1;
        self.stats.swap_outs += 1;
        cycles.charge(cost.swap_slot_alloc);
        cycles.charge(cost.swap_out_page);
        Ok(slot)
    }

    /// Reads a slot back for swap-in, charging the device read and
    /// recording refault statistics. Crosses [`FaultSite::SwapIn`] first:
    /// an injected failure models a device I/O error
    /// ([`MemError::SwapIo`]) with the slot — and its content — intact,
    /// so a retry can still succeed.
    ///
    /// The slot reference is *not* dropped here; the caller releases it
    /// with [`SwapDevice::release`] only after the page is safely
    /// resident, so a failure between read and map leaks nothing.
    pub(crate) fn read_slot(&mut self, slot: u64, cycles: &mut Cycles, cost: &CostModel) -> MemResult<u64> {
        let s = *self.slots.get(&slot).ok_or(MemError::NotMapped)?;
        fpr_faults::cross(FaultSite::SwapIn).map_err(|_| {
            self.stats.io_errors += 1;
            MemError::SwapIo
        })?;
        cycles.charge(cost.swap_in_page);
        let refault = self.epoch.saturating_sub(s.birth) <= self.refault_horizon();
        self.push_recent(refault);
        self.stats.swap_ins += 1;
        if refault {
            self.stats.refaults += 1;
        }
        Ok(s.stamp)
    }

    /// Content stamp of a used slot, without device cost or statistics
    /// (the observation path tests use to compare logical memory).
    pub(crate) fn peek(&self, slot: u64) -> MemResult<u64> {
        self.slots.get(&slot).map(|s| s.stamp).ok_or(MemError::NotMapped)
    }

    /// Reference count of a used slot.
    pub fn refs(&self, slot: u64) -> MemResult<u32> {
        self.slots.get(&slot).map(|s| s.refs).ok_or(MemError::NotMapped)
    }

    /// Takes a reference on each slot of `slots`: what a fork copying a
    /// node's swap entries, or an unshare privatizing it, does beside the
    /// frames of its present entries. All or nothing: at a slot the device
    /// does not hold it gives back what it took and reports
    /// [`MemError::NotMapped`].
    pub(crate) fn retain(&mut self, slots: impl IntoIterator<Item = u64, IntoIter: Clone>) -> MemResult<()> {
        let slots = slots.into_iter();
        if slots.clone().any(|slot| !self.slots.contains_key(&slot)) {
            return Err(MemError::NotMapped);
        }
        slots.for_each(|slot| self.slots.get_mut(&slot).expect("held above").refs += 1);
        Ok(())
    }

    /// Drops a reference from each slot of `slots`, freeing those that
    /// reach zero in the order they come — ascending, from a node — and
    /// returns how many that was. Stops at the first slot the device does
    /// not hold and reports [`MemError::NotMapped`]; the slots before it
    /// stay released.
    pub(crate) fn release(&mut self, slots: impl IntoIterator<Item = u64>) -> MemResult<u64> {
        let mut freed = 0;
        for slot in slots {
            let s = self.slots.get_mut(&slot).ok_or(MemError::NotMapped)?;
            debug_assert!(s.refs > 0);
            s.refs -= 1;
            if s.refs == 0 {
                self.slots.remove(&slot);
                self.clear_bit(slot);
                self.used -= 1;
                freed += 1;
            }
        }
        Ok(freed)
    }

    /// Frees a slot outright regardless of refcount — the rollback path
    /// of an aborted swap-out pass, undoing `SwapDevice::alloc_slot`
    /// exactly (including the epoch, so an aborted pass leaves the
    /// device byte-identical).
    pub fn unalloc_slot(&mut self, slot: u64) {
        let removed = self.slots.remove(&slot);
        debug_assert!(
            matches!(removed, Some(s) if s.refs == 1),
            "unalloc_slot is only for just-allocated slots"
        );
        self.clear_bit(slot);
        self.used -= 1;
        self.epoch -= 1;
        self.stats.swap_outs -= 1;
    }

    /// True while the recent swap-in window shows a majority of refaults:
    /// the machine is paging against its own working set. Used to
    /// throttle warm-pool refill and inflate retry backoff.
    pub fn thrashing(&self) -> bool {
        if self.recent_len < THRASH_MIN_SAMPLES {
            return false;
        }
        let mask = if self.recent_len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.recent_len) - 1
        };
        let refaults = (self.recent_bits & mask).count_ones();
        2 * refaults >= self.recent_len.min(THRASH_WINDOW)
    }

    /// Every used slot, in slot order (the invariant checker's view).
    pub fn used_slot_refs(&self) -> Vec<(u64, u32)> {
        self.slots.iter().map(|(&slot, s)| (slot, s.refs)).collect()
    }

    /// How many swap-outs back an eviction still counts as "recent" for
    /// refault detection: half the device, at least one.
    fn refault_horizon(&self) -> u64 {
        (self.capacity / 2).max(1)
    }

    fn push_recent(&mut self, refault: bool) {
        self.recent_bits = (self.recent_bits << 1) | refault as u64;
        self.recent_len = (self.recent_len + 1).min(THRASH_WINDOW);
    }

    fn find_first_zero(&self) -> Option<u64> {
        for (i, word) in self.bitmap.iter().enumerate() {
            if *word != u64::MAX {
                let bit = word.trailing_ones() as u64;
                let slot = i as u64 * 64 + bit;
                if slot < self.capacity {
                    return Some(slot);
                }
            }
        }
        None
    }

    fn set_bit(&mut self, slot: u64) {
        self.bitmap[(slot / 64) as usize] |= 1 << (slot % 64);
    }

    fn clear_bit(&mut self, slot: u64) {
        self.bitmap[(slot / 64) as usize] &= !(1 << (slot % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_faults::{with_plan, FaultPlan};

    fn dev(cap: u64) -> (SwapDevice, Cycles, CostModel) {
        (SwapDevice::new(cap), Cycles::new(), CostModel::default())
    }

    #[test]
    fn alloc_read_free_roundtrip() {
        let (mut d, mut c, cost) = dev(8);
        let slot = d.alloc_slot(0xAB, &mut c, &cost).unwrap();
        assert_eq!(d.used_slots(), 1);
        assert_eq!(d.peek(slot), Ok(0xAB));
        assert_eq!(d.read_slot(slot, &mut c, &cost), Ok(0xAB));
        assert_eq!(d.release([slot]), Ok(1));
        assert_eq!(d.used_slots(), 0);
        assert_eq!(d.peek(slot), Err(MemError::NotMapped));
        assert!(c.total() >= cost.swap_out_page + cost.swap_in_page);
    }

    #[test]
    fn full_device_reports_oom_without_crossing() {
        let (mut d, mut c, cost) = dev(2);
        d.alloc_slot(1, &mut c, &cost).unwrap();
        d.alloc_slot(2, &mut c, &cost).unwrap();
        let (r, trace) = with_plan(FaultPlan::passive(), || d.alloc_slot(3, &mut c, &cost));
        assert_eq!(r, Err(MemError::OutOfMemory));
        assert!(trace.is_empty(), "a full device is not a fault site");
    }

    #[test]
    fn injected_slot_alloc_leaves_device_identical() {
        let (mut d, mut c, cost) = dev(8);
        d.alloc_slot(7, &mut c, &cost).unwrap();
        let before = d.clone();
        let plan = FaultPlan::passive().fail_at(FaultSite::SwapSlotAlloc, 0);
        let (r, _) = with_plan(plan, || d.alloc_slot(8, &mut c, &cost));
        assert_eq!(r, Err(MemError::OutOfMemory));
        assert_eq!(d.used_slots(), before.used_slots());
        assert_eq!(d.used_slot_refs(), before.used_slot_refs());
        assert_eq!(d.stats(), before.stats());
    }

    #[test]
    fn injected_swap_in_is_io_error_and_retryable() {
        let (mut d, mut c, cost) = dev(8);
        let slot = d.alloc_slot(0x5150, &mut c, &cost).unwrap();
        let plan = FaultPlan::passive().fail_at(FaultSite::SwapIn, 0);
        let (r, _) = with_plan(plan, || d.read_slot(slot, &mut c, &cost));
        assert_eq!(r, Err(MemError::SwapIo));
        assert_eq!(d.stats().io_errors, 1);
        assert_eq!(
            d.read_slot(slot, &mut c, &cost),
            Ok(0x5150),
            "slot content survives the failed read"
        );
    }

    #[test]
    fn unalloc_restores_epoch_and_stats() {
        let (mut d, mut c, cost) = dev(8);
        d.alloc_slot(1, &mut c, &cost).unwrap();
        let before = d.clone();
        let slot = d.alloc_slot(2, &mut c, &cost).unwrap();
        d.unalloc_slot(slot);
        assert_eq!(d.used_slots(), before.used_slots());
        assert_eq!(d.stats(), before.stats());
        assert_eq!(d.used_slot_refs(), before.used_slot_refs());
    }

    #[test]
    fn slot_refs_share_and_release() {
        let (mut d, mut c, cost) = dev(4);
        let slot = d.alloc_slot(9, &mut c, &cost).unwrap();
        d.retain([slot]).unwrap();
        assert_eq!(d.refs(slot), Ok(2));
        assert_eq!(d.release([slot]), Ok(0));
        assert_eq!(d.used_slots(), 1, "shared slot survives one release");
        assert_eq!(d.release([slot]), Ok(1));
        assert_eq!(d.used_slots(), 0);
    }

    #[test]
    fn retain_takes_every_slot_or_none() {
        let (mut d, mut c, cost) = dev(8);
        let held: Vec<u64> = (0..3).map(|i| d.alloc_slot(i, &mut c, &cost).unwrap()).collect();
        d.release([held[1]]).unwrap();
        // Slot 1 is nobody's now: nothing is taken, not even slot 0.
        assert_eq!(d.retain([held[0], held[1], held[2]]), Err(MemError::NotMapped));
        assert_eq!((d.refs(held[0]), d.refs(held[2])), (Ok(1), Ok(1)));
        // A slot listed twice is taken twice.
        d.retain([held[2], held[0], held[2]]).unwrap();
        assert_eq!((d.refs(held[0]), d.refs(held[2])), (Ok(2), Ok(3)));
    }

    #[test]
    fn release_frees_in_the_order_given_and_stops_at_an_unheld_slot() {
        let (mut d, mut c, cost) = dev(8);
        let held: Vec<u64> = (0..5).map(|i| d.alloc_slot(i, &mut c, &cost).unwrap()).collect();
        d.retain([held[1]]).unwrap();
        d.release([held[3]]).unwrap();
        // 0 and 2 free, 1 keeps a reference, 3 stops the pass: 4 is untouched.
        assert_eq!(d.release([held[0], held[1], held[2], held[3], held[4]]), Err(MemError::NotMapped));
        assert_eq!(d.used_slot_refs(), vec![(held[1], 1), (held[4], 1)]);
        // The slots freed are the lowest free ones again, first fit.
        let again: Vec<u64> = (0..3).map(|i| d.alloc_slot(i, &mut c, &cost).unwrap()).collect();
        assert_eq!(again, vec![held[0], held[2], held[3]]);
        assert_eq!(d.release(held.iter().copied()), Ok(5));
        assert_eq!(d.used_slots(), 0);
    }

    #[test]
    fn bitmap_reuses_freed_slots_first_fit() {
        let (mut d, mut c, cost) = dev(4);
        let a = d.alloc_slot(1, &mut c, &cost).unwrap();
        let b = d.alloc_slot(2, &mut c, &cost).unwrap();
        assert_eq!((a, b), (0, 1));
        d.release([a]).unwrap();
        let c2 = d.alloc_slot(3, &mut c, &cost).unwrap();
        assert_eq!(c2, 0, "first-fit reuses the lowest free slot");
    }

    #[test]
    fn thrashing_needs_a_refault_majority() {
        let (mut d, mut c, cost) = dev(64);
        assert!(!d.thrashing(), "fresh device is quiet");
        // Evict-and-immediately-refault in a tight loop: every read is a
        // refault (birth within half the device's capacity of epochs).
        for i in 0..THRASH_MIN_SAMPLES as u64 {
            let slot = d.alloc_slot(i, &mut c, &cost).unwrap();
            d.read_slot(slot, &mut c, &cost).unwrap();
            d.release([slot]).unwrap();
        }
        assert!(d.thrashing(), "all-refault window is thrash");
        // A long run of cold swap-ins clears the signal: age the slots
        // far beyond the refault horizon before reading them back.
        let survivors: Vec<u64> = (0..THRASH_WINDOW as u64)
            .map(|i| d.alloc_slot(100 + i, &mut c, &cost).unwrap())
            .collect();
        for _ in 0..2 * d.capacity() {
            let s = d.alloc_slot(0, &mut c, &cost).unwrap();
            d.release([s]).unwrap();
        }
        for s in survivors {
            d.read_slot(s, &mut c, &cost).unwrap();
            d.release([s]).unwrap();
        }
        assert!(!d.thrashing(), "cold swap-ins are not thrash");
    }

    #[test]
    fn zero_capacity_device_is_inert() {
        let (mut d, mut c, cost) = dev(0);
        assert!(!d.enabled());
        let (r, trace) = with_plan(FaultPlan::passive(), || d.alloc_slot(1, &mut c, &cost));
        assert_eq!(r, Err(MemError::OutOfMemory));
        assert!(trace.is_empty());
        assert_eq!(c.total(), 0, "disabled swap charges nothing");
    }
}
