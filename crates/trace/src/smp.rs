//! Named virtual-time locks for the SMP driver.
//!
//! [`VLock`] wraps a [`std::sync::Mutex`] and prices every hand-off in
//! *virtual* time using the per-thread [`crate::vclock`]: when a thread
//! whose clock reads `t` acquires a lock last released at virtual time
//! `free_at > t`, the acquirer's clock jumps to `free_at` and the wait
//! (`free_at - t`) is counted by the lock itself, in [`VLock::stats`],
//! as one contended acquisition. On release, `free_at` is set to the
//! holder's clock *after* its critical section, so the next contender
//! inherits the serialization cost.
//!
//! This makes lock contention measurable and deterministic-ish on a
//! single host core: the experiment's "where does fork serialize" answer
//! comes from these tallies (mm vs pid vs buddy vs tlb), summed by name
//! over the locks one machine owns, not from wall-clock jitter. A single
//! thread acquiring its own locks never waits — its clock is already at
//! or past every `free_at` it wrote — so single-threaded arms report zero
//! contention by construction.
//!
//! ## Lock order
//!
//! The SMP machine documents one lock order — `mm` → `pid` → `buddy` →
//! `tlb` (ARCHITECTURE.md) — and [`VLock::lock`] *refuses* to break it
//! for exactly those four names: a thread that already holds a ranked
//! lock of the same or a later rank panics before it can block, naming
//! the lock it wanted and the ranks it holds. Locks with any other name
//! (tests, ad-hoc structures) have no rank and are never refused.
//!
//! Refusal is what makes the machine deadlock-free. A thread waits on a
//! ranked lock only while every lock it holds ranks lower, so along any
//! chain of waiters the ranks strictly rise, and no chain can come back
//! to where it started: no wait-for cycle among ranked locks can form.
//! The refusal's unwind releases the locks the thread held, so the
//! panic reaches the test harness and nothing hangs.
//!
//! The set of ranks a thread holds is thread-local; nothing in this
//! module is process-wide.
//!
//! ```
//! use fpr_trace::smp::{LockStats, VLock};
//! use fpr_trace::vclock;
//!
//! vclock::reset();
//! let l = VLock::new("mm", 0u64);
//! {
//!     let mut g = l.lock();
//!     *g += 1;
//!     vclock::advance(500); // simulated work inside the critical section
//! }
//! // Same thread, clock already past free_at: no contention recorded.
//! drop(l.lock());
//! assert_eq!(l.stats(), LockStats::default());
//! ```

use crate::vclock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The documented SMP lock order; a ranked lock may only be acquired
/// while every held ranked lock has a strictly smaller rank.
const LOCK_ORDER: [&str; 4] = ["mm", "pid", "buddy", "tlb"];

/// Rank of `name` in the documented order, `None` for unranked names.
fn rank_of(name: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|&n| n == name)
}

thread_local! {
    /// The ranks of the ranked locks this thread holds, bit `r` for rank
    /// `r`: under refusal a thread holds at most one lock of each rank.
    static HELD: Cell<u8> = const { Cell::new(0) };
}

/// Contention tallies of one [`VLock`], or a sum of several.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Acquisitions that found the lock virtually held.
    pub contended_acquires: u64,
    /// Total virtual cycles spent waiting across those acquisitions.
    pub wait_cycles: u64,
}

impl std::iter::Sum for LockStats {
    fn sum<I: Iterator<Item = LockStats>>(iter: I) -> LockStats {
        iter.fold(LockStats::default(), |a, b| LockStats {
            contended_acquires: a.contended_acquires + b.contended_acquires,
            wait_cycles: a.wait_cycles + b.wait_cycles,
        })
    }
}

/// A named mutex that models contention in virtual time.
#[derive(Debug)]
pub struct VLock<T> {
    name: &'static str,
    /// Rank of `name` in the documented order, `None` for unranked names
    /// (which are never tracked).
    rank: Option<usize>,
    /// Virtual time at which the last holder released the lock.
    free_at: AtomicU64,
    /// [`LockStats::contended_acquires`] and [`LockStats::wait_cycles`]:
    /// bumped only on a wait, while the mutex is held.
    contended: AtomicU64,
    waited: AtomicU64,
    inner: Mutex<T>,
}

impl<T> VLock<T> {
    /// Wraps `value` in a lock whose contention is recorded under `name`.
    pub fn new(name: &'static str, value: T) -> VLock<T> {
        VLock {
            name,
            rank: rank_of(name),
            free_at: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            waited: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// This lock's contended acquisitions and the virtual cycles they
    /// waited, since it was made; exact once no thread is acquiring it.
    pub fn stats(&self) -> LockStats {
        LockStats {
            contended_acquires: self.contended.load(Ordering::Relaxed),
            wait_cycles: self.waited.load(Ordering::Relaxed),
        }
    }

    /// Acquires the lock, advancing this thread's virtual clock to the
    /// lock's release time and recording the wait if it had to "spin".
    ///
    /// Poisoning is ignored: the simulated kernel's own invariants are
    /// checked explicitly at quiesce, and a panicking test thread must
    /// not cascade into every other cell.
    ///
    /// # Panics
    ///
    /// For the four ranked names, panics before it can block if this
    /// thread already holds a ranked lock of the same or a later rank
    /// (see the module docs).
    pub fn lock(&self) -> VLockGuard<'_, T> {
        if let Some(rank) = self.rank {
            let held = HELD.get();
            if held >> rank != 0 {
                let names: Vec<&str> = (0..LOCK_ORDER.len())
                    .filter(|&r| held >> r & 1 != 0)
                    .map(|r| LOCK_ORDER[r])
                    .collect();
                panic!(
                    "lock order refused: \"{}\" taken while holding [{}]; the order is {}",
                    self.name,
                    names.join(", "),
                    LOCK_ORDER.join(" -> ")
                );
            }
            HELD.set(held | 1 << rank);
        }
        let guard = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = vclock::now();
        let free_at = self.free_at.load(Ordering::Acquire);
        if free_at > now {
            vclock::advance_to(free_at);
            self.contended.fetch_add(1, Ordering::Relaxed);
            self.waited.fetch_add(free_at - now, Ordering::Relaxed);
        }
        VLockGuard { lock: self, guard }
    }
}

/// Guard returned by [`VLock::lock`]; stamps the lock's release time
/// from the holder's virtual clock on drop.
pub struct VLockGuard<'a, T> {
    lock: &'a VLock<T>,
    guard: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for VLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for VLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for VLockGuard<'_, T> {
    fn drop(&mut self) {
        // Store before the mutex is released (the field drops after this
        // body), so the next acquirer always observes our release time.
        self.lock.free_at.store(vclock::now(), Ordering::Release);
        if let Some(rank) = self.lock.rank {
            HELD.set(HELD.get() & !(1 << rank));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_same_thread_records_nothing() {
        vclock::reset();
        let l = VLock::new("t.smp.solo", 0u32);
        for _ in 0..10 {
            let mut g = l.lock();
            *g += 1;
            vclock::advance(100);
        }
        assert_eq!(*l.lock(), 10);
        assert_eq!(
            l.stats(),
            LockStats::default(),
            "a single thread never contends with itself"
        );
    }

    #[test]
    fn cross_thread_handoff_charges_the_wait() {
        let l = Arc::new(VLock::new("t.smp.pair", ()));
        // Holder: clock at 1000 when it releases.
        {
            let l = l.clone();
            std::thread::spawn(move || {
                vclock::reset();
                let _g = l.lock();
                vclock::advance(1000);
            })
            .join()
            .unwrap();
        }
        // Contender: clock at 100, must jump to 1000 and record 900.
        let l2 = l.clone();
        let waited = std::thread::spawn(move || {
            vclock::reset();
            vclock::advance(100);
            let _g = l2.lock();
            vclock::now()
        })
        .join()
        .unwrap();
        assert_eq!(waited, 1000, "clock advanced to the release time");
        assert_eq!(
            l.stats(),
            LockStats {
                contended_acquires: 1,
                wait_cycles: 900
            }
        );
    }

    /// Runs `f` and returns its panic message, or `None` if it returned.
    fn refusal(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(err.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    #[test]
    fn inverted_or_repeated_rank_is_refused() {
        let mm = VLock::new("mm", ());
        let buddy = VLock::new("buddy", ());
        let msg = refusal(|| {
            let _b = buddy.lock();
            let _a = mm.lock(); // buddy held while taking mm: inversion
        })
        .expect("an inversion is refused");
        assert!(msg.contains("lock order refused: \"mm\""), "{msg}");
        assert!(msg.contains("[buddy]"), "names the ranks held: {msg}");

        let other_mm = VLock::new("mm", ());
        let msg = refusal(|| {
            let _a = mm.lock();
            let _b = other_mm.lock(); // second mm while the first is held
        })
        .expect("a second lock of one rank is refused");
        assert!(msg.contains("lock order refused: \"mm\""), "{msg}");
        assert!(msg.contains("[mm]"), "names the ranks held: {msg}");
    }

    #[test]
    fn documented_order_sequential_ranks_and_unranked_names_proceed() {
        let mm = VLock::new("mm", ());
        let pid = VLock::new("pid", ());
        let buddy = VLock::new("buddy", ());
        let tlb = VLock::new("tlb", ());
        {
            let _a = mm.lock();
            let _b = pid.lock();
            let _c = buddy.lock();
            let _d = tlb.lock();
        }
        let other_pid = VLock::new("pid", ());
        drop(pid.lock());
        drop(other_pid.lock()); // sequential same-rank acquisitions
        let x = VLock::new("t.smp.x", ());
        let y = VLock::new("t.smp.y", ());
        let _gy = y.lock();
        let _gt = tlb.lock(); // a ranked lock under an unranked one
        let _gx = x.lock(); // unranked locks have no order
    }

    #[test]
    fn a_caught_refusal_leaves_nothing_held() {
        let mm = VLock::new("mm", ());
        let pid = VLock::new("pid", ());
        let buddy = VLock::new("buddy", ());
        let tlb = VLock::new("tlb", ());
        assert!(refusal(|| {
            let _a = pid.lock();
            let _b = tlb.lock();
            let _c = buddy.lock();
        })
        .is_some());
        assert_eq!(HELD.get(), 0, "the unwind released every rank");
        let _a = mm.lock();
        let _b = pid.lock();
        let _c = buddy.lock();
        let _d = tlb.lock();
    }

    #[test]
    fn crossed_pair_is_refused_on_both_threads_instead_of_hanging() {
        use std::sync::Barrier;
        let a = Arc::new(VLock::new("mm", 0u32));
        let b = Arc::new(VLock::new("mm", 0u32));
        let gate = Arc::new(Barrier::new(2));
        let spawn = |first: Arc<VLock<u32>>, second: Arc<VLock<u32>>, gate: Arc<Barrier>| {
            std::thread::spawn(move || {
                let _g1 = first.lock();
                gate.wait(); // both threads hold their first lock
                let _g2 = second.lock(); // ... and cross over
            })
        };
        let t1 = spawn(Arc::clone(&a), Arc::clone(&b), Arc::clone(&gate));
        let t2 = spawn(Arc::clone(&b), Arc::clone(&a), Arc::clone(&gate));
        for r in [t1.join(), t2.join()] {
            let msg = r.expect_err("each thread is refused its second mm");
            let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock order refused"), "{msg}");
        }
    }
}
