//! Process and thread identifier allocation.
//!
//! Two layers: `PidAllocator` is the classic bitmap, and
//! [`ShardedPidTable`] — the machine's one PID space — stripes it across
//! independently locked allocators, one per cell, so concurrent creators
//! on different cells rarely touch the same lock — fork storms serialize
//! on the memory subsystem, not on handing out numbers. A single-kernel
//! machine is the one-shard table, which hands out 1, 2, 3, … exactly
//! like the bare bitmap. Each shard's lock is a
//! [`fpr_trace::smp::VLock`] named `"pid"`, so residual contention (the
//! overflow scan when a home shard runs dry) is visible in
//! [`ShardedPidTable::lock_stats`].

use crate::error::{Errno, KResult};
use fpr_faults::FaultSite;
use fpr_trace::smp::{LockStats, VLock};

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// A thread identifier, unique within the whole machine (like Linux TIDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Allocates PIDs with wraparound and recycling, like Linux's pid bitmap:
/// one bit per PID, searched next-fit from just past the PID handed out
/// last.
#[derive(Debug, Clone)]
pub(crate) struct PidAllocator {
    /// Where the next search starts.
    next: u32,
    max: u32,
    /// Bit `p - 1` is set while PID `p` is held.
    bits: Vec<u64>,
    live: u32,
}

impl PidAllocator {
    /// Creates an allocator handing out PIDs `1..=max`.
    pub(crate) fn new(max: u32) -> Self {
        PidAllocator {
            next: 1,
            max,
            bits: vec![0; max.div_ceil(64) as usize],
            live: 0,
        }
    }

    /// The first free PID in `from..=max`, if there is one.
    fn free_from(&self, from: u32) -> Option<u32> {
        let first = (from - 1) as usize;
        let mut w = first / 64;
        let mut free = !self.bits[w] & (u64::MAX << (first % 64));
        while free == 0 {
            w += 1;
            free = !*self.bits.get(w)?;
        }
        // Bits past `max` in the last word read free.
        let bit = w * 64 + free.trailing_zeros() as usize;
        (bit < self.max as usize).then_some(bit as u32 + 1)
    }

    /// Allocates the next free PID, wrapping at `max`.
    ///
    /// Fails with [`Errno::Eagain`] when the PID space is exhausted —
    /// the error a fork bomb eventually sees. No fault site is crossed
    /// here: [`ShardedPidTable`] crosses [`FaultSite::PidAlloc`] once per
    /// machine-wide allocation (so an injected fault is never masked by
    /// the overflow scan) and then calls this on each candidate shard.
    pub(crate) fn alloc(&mut self) -> KResult<Pid> {
        if self.live >= self.max {
            return Err(Errno::Eagain);
        }
        let pid = self
            .free_from(self.next)
            .or_else(|| self.free_from(1))
            .expect("fewer than max pids held");
        let (w, bit) = bit_of(pid);
        self.bits[w] |= bit;
        self.live += 1;
        self.next = if pid >= self.max { 1 } else { pid + 1 };
        Ok(Pid(pid))
    }

    /// Returns a PID to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the PID was not allocated.
    pub(crate) fn free(&mut self, pid: Pid) {
        let (w, bit) = bit_of(pid.0);
        let held = (1..=self.max).contains(&pid.0) && self.bits[w] & bit != 0;
        assert!(held, "freeing unallocated pid {}", pid.0);
        self.bits[w] &= !bit;
        self.live -= 1;
    }

    /// Number of live PIDs.
    pub(crate) fn live(&self) -> usize {
        self.live as usize
    }
}

/// The word of a [`PidAllocator`]'s bitmap holding PID `pid`'s bit, and
/// the bit. PID 0 is never handed out; it wraps to a word past the end.
fn bit_of(pid: u32) -> (usize, u64) {
    let b = pid.wrapping_sub(1);
    ((b / 64) as usize, 1 << (b % 64))
}

/// A machine-wide PID space striped across independently locked shards.
///
/// Shard `s` owns every PID congruent to `s + 1` modulo the shard count
/// (PID 0 stays unused, like the idle task): shard 0 of 4 hands out
/// 1, 5, 9, …; shard 1 hands out 2, 6, 10, …. Each cell allocates from
/// its *home* shard first and only scans the others when that shard is
/// exhausted, so uncontended creation storms never collide on a lock.
/// Every shard is a `PidAllocator` underneath; the table crosses
/// [`FaultSite::PidAlloc`] once per allocation and exhaustion surfaces
/// as [`Errno::Eagain`].
#[derive(Debug)]
pub struct ShardedPidTable {
    shards: Vec<VLock<PidAllocator>>,
    /// The highest PID the table can hand out.
    pub(crate) max_pid: u32,
}

impl ShardedPidTable {
    /// Creates a table of `shards` stripes covering `max_pids` PIDs in
    /// total (each shard owns an equal slice, at least one PID).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub(crate) fn new(shards: usize, max_pids: u32) -> ShardedPidTable {
        assert!(shards > 0, "need at least one pid shard");
        let per = (max_pids / shards as u32).max(1);
        ShardedPidTable {
            shards: (0..shards)
                .map(|_| VLock::new("pid", PidAllocator::new(per)))
                .collect(),
            max_pid: per * shards as u32,
        }
    }

    /// Translates shard-local PID `inner` of shard `s` to the machine-wide
    /// PID.
    fn global_pid(&self, s: usize, inner: Pid) -> Pid {
        Pid((inner.0 - 1) * self.shards.len() as u32 + s as u32 + 1)
    }

    /// The shard owning a machine-wide PID.
    fn shard_of(&self, pid: Pid) -> (usize, Pid) {
        let s = ((pid.0 - 1) % self.shards.len() as u32) as usize;
        let inner = (pid.0 - 1) / self.shards.len() as u32 + 1;
        (s, Pid(inner))
    }

    /// Allocates a PID, trying the caller's home shard first and scanning
    /// the others only on exhaustion. Crosses [`FaultSite::PidAlloc`]
    /// exactly once. Fails with [`Errno::Eagain`] when every shard is
    /// dry.
    pub(crate) fn alloc(&self, home: usize) -> KResult<Pid> {
        fpr_faults::cross(FaultSite::PidAlloc).map_err(|_| Errno::Eagain)?;
        let n = self.shards.len();
        let mut last = Err(Errno::Eagain);
        for i in 0..n {
            let s = (home + i) % n;
            match self.shards[s].lock().alloc() {
                Ok(inner) => return Ok(self.global_pid(s, inner)),
                Err(e) => last = Err(e),
            }
        }
        last
    }

    /// Returns a PID to its owning shard.
    ///
    /// # Panics
    ///
    /// Panics if the PID was not allocated by this table.
    pub(crate) fn free(&self, pid: Pid) {
        let (s, inner) = self.shard_of(pid);
        self.shards[s].lock().free(inner);
    }

    /// The shard locks' contention since the table was made, summed.
    pub fn lock_stats(&self) -> LockStats {
        self.shards.iter().map(VLock::stats).sum()
    }

    /// Machine-wide count of live PIDs.
    pub fn live(&self) -> usize {
        self.shards.iter().map(|s| s.lock().live()).sum()
    }
}

/// Allocates machine-wide thread IDs monotonically.
#[derive(Debug, Clone, Default)]
pub(crate) struct TidAllocator {
    next: u64,
}

impl TidAllocator {
    /// Creates the allocator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh TID.
    pub(crate) fn alloc(&mut self) -> Tid {
        self.next += 1;
        Tid(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pids_start_at_one_and_increment() {
        let mut a = PidAllocator::new(100);
        assert_eq!(a.alloc().unwrap(), Pid(1));
        assert_eq!(a.alloc().unwrap(), Pid(2));
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn exhaustion_is_eagain() {
        let mut a = PidAllocator::new(3);
        for _ in 0..3 {
            a.alloc().unwrap();
        }
        assert_eq!(a.alloc(), Err(Errno::Eagain));
        a.free(Pid(2));
        assert_eq!(a.alloc().unwrap(), Pid(2), "wraps and recycles");
    }

    #[test]
    fn wraparound_skips_live_pids() {
        let mut a = PidAllocator::new(4);
        let pids: Vec<Pid> = (0..4).map(|_| a.alloc().unwrap()).collect();
        a.free(pids[0]);
        a.free(pids[2]);
        // next wrapped to 1; both 1 and 3 free.
        assert_eq!(a.alloc().unwrap(), Pid(1));
        assert_eq!(a.alloc().unwrap(), Pid(3));
    }

    /// The bitmap against the rule written out, over 130 PIDs: three
    /// words, the last of them mostly past `max`.
    #[test]
    fn bitmap_hands_out_next_fit_across_words() {
        const MAX: u32 = 130;
        let mut a = PidAllocator::new(MAX);
        let mut held = vec![false; MAX as usize + 1];
        let mut last = 0;
        let mut rng = fpr_rng::Rng::seed_from_u64(0x61D);
        for _ in 0..4000 {
            let holding: Vec<u32> = (1..=MAX).filter(|&p| held[p as usize]).collect();
            if holding.is_empty() || rng.gen_bool(0.55) {
                let expect = (0..MAX).map(|i| (last + i) % MAX + 1).find(|&p| !held[p as usize]);
                assert_eq!(a.alloc().ok(), expect.map(Pid));
                if let Some(p) = expect {
                    (held[p as usize], last) = (true, p);
                }
            } else {
                let p = holding[rng.gen_index(holding.len())];
                a.free(Pid(p));
                held[p as usize] = false;
            }
            assert_eq!(a.live(), held.iter().filter(|h| **h).count());
        }
    }

    #[test]
    #[should_panic(expected = "unallocated pid")]
    fn free_unallocated_panics() {
        let mut a = PidAllocator::new(4);
        a.free(Pid(1));
    }

    #[test]
    fn tids_are_unique() {
        let mut t = TidAllocator::new();
        let a = t.alloc();
        let b = t.alloc();
        assert_ne!(a, b);
    }

    #[test]
    fn one_shard_table_hands_out_the_bare_bitmap_sequence() {
        let t = ShardedPidTable::new(1, 3);
        let mut a = PidAllocator::new(3);
        for _ in 0..3 {
            assert_eq!(t.alloc(0), a.alloc());
        }
        assert_eq!(t.alloc(0), Err(Errno::Eagain));
        t.free(Pid(2));
        a.free(Pid(2));
        assert_eq!(t.alloc(0), a.alloc(), "wraps and recycles identically");
    }

    #[test]
    fn shards_stripe_the_pid_space_disjointly() {
        let t = ShardedPidTable::new(4, 4096);
        // Home shards hand out their own residue classes.
        assert_eq!(t.alloc(0).unwrap(), Pid(1));
        assert_eq!(t.alloc(1).unwrap(), Pid(2));
        assert_eq!(t.alloc(2).unwrap(), Pid(3));
        assert_eq!(t.alloc(3).unwrap(), Pid(4));
        assert_eq!(t.alloc(0).unwrap(), Pid(5));
        assert_eq!(t.live(), 5);
        t.free(Pid(1));
        t.free(Pid(5));
        // Shard 0's cursor moved past inner 1 and 2; the next alloc stays
        // in its residue class (1 mod 4) without reusing freed pids yet.
        assert_eq!(t.alloc(0).unwrap(), Pid(9));
        t.free(Pid(9));
        t.free(Pid(2));
        t.free(Pid(3));
        t.free(Pid(4));
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn exhausted_home_shard_overflows_to_neighbours() {
        let t = ShardedPidTable::new(2, 4); // 2 pids per shard
        assert_eq!(t.alloc(0).unwrap(), Pid(1));
        assert_eq!(t.alloc(0).unwrap(), Pid(3));
        // Home shard 0 is dry; the scan lands on shard 1.
        assert_eq!(t.alloc(0).unwrap(), Pid(2));
        assert_eq!(t.alloc(0).unwrap(), Pid(4));
        assert_eq!(t.alloc(0), Err(Errno::Eagain), "machine-wide exhaustion");
        assert_eq!(t.alloc(1), Err(Errno::Eagain));
    }

    #[test]
    fn sharded_alloc_crosses_the_pid_fault_site() {
        let t = ShardedPidTable::new(2, 64);
        let (res, trace) = fpr_faults::with_plan(
            fpr_faults::FaultPlan::passive().fail_at(FaultSite::PidAlloc, 0),
            || t.alloc(0),
        );
        assert_eq!(trace.injected().len(), 1);
        assert_eq!(
            res,
            Err(Errno::Eagain),
            "injected fault surfaces — the overflow scan must not mask it"
        );
        assert_eq!(t.live(), 0, "no pid leaked by the failed attempt");
    }
}
