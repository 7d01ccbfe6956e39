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
//! ## Lock-order validation
//!
//! The SMP machine documents one lock order — `mm` → `pid` → `buddy` →
//! `tlb` (ARCHITECTURE.md) — and this module *enforces* it at runtime
//! for exactly those four names. Each thread tracks which ranked locks
//! it holds; acquiring a ranked lock whose rank is not strictly greater
//! than every rank already held (which also catches taking two `mm`
//! locks at once) counts one violation in [`order_violations`], then
//! proceeds. The E17 gate asserts the counter stays at zero across every
//! storm. Locks with any other name (tests, ad-hoc structures) are
//! exempt.
//!
//! The violation and deadlock counts and the wait-for graph are the
//! module's only process-wide state, and they stay so on purpose: a lock
//! order is a property of the code, not of one machine, and a wait cycle
//! can close across the locks of any number of machines.
//!
//! ## Deadlock detection
//!
//! Every ranked lock records its holder's thread id in an atomic of its
//! own, so an uncontended acquire/release pair touches nothing
//! process-global. Only an acquisition that *would block* takes the
//! process-wide wait-for graph mutex: it registers a waiting edge
//! (thread → lock → holding thread) and looks for a cycle. A cycle means
//! the machine *would* hang; instead of hanging, the acquirer increments
//! [`deadlocks_detected`], and panics with the full cycle — a
//! deterministic, reportable event. The unwind releases the acquirer's
//! own locks, so surviving threads keep running (and the test harness
//! reports the panic instead of timing out).
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
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};

/// The documented SMP lock order; a ranked lock may only be acquired
/// while every held ranked lock has a strictly smaller rank.
const LOCK_ORDER: [&str; 4] = ["mm", "pid", "buddy", "tlb"];

/// Rank of `name` in the documented order, `None` for exempt names.
fn rank_of(name: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|&n| n == name)
}

/// Process-wide count of lock-order violations (see module docs).
static ORDER_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of would-block cycles caught by the detector.
static DEADLOCKS: AtomicU64 = AtomicU64::new(0);

/// Monotone thread ids, assigned lazily the first time a thread touches
/// a ranked lock; 0 is never handed out (it means "no holder").
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// How many locks of each rank this thread currently holds.
    static HELD: Cell<[u8; LOCK_ORDER.len()]> = const { Cell::new([0; LOCK_ORDER.len()]) };
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Adjusts this thread's held count for `rank` by `delta`.
fn note_held(rank: usize, delta: i8) {
    HELD.with(|h| {
        let mut held = h.get();
        held[rank] = held[rank].wrapping_add_signed(delta);
        h.set(held);
    });
}

/// The process-wide wait-for graph over *ranked* locks: who is blocked
/// on what. "Who holds what" lives in each lock's own holder cell, which
/// a waiting edge carries along. Waiting edges are only mutated under
/// the graph mutex, and a thread stores every holder id before it
/// registers a wait, so the last thread to close a cycle sees all of it:
/// every thread on the cycle holds its lock and has registered its wait.
#[derive(Default)]
struct WaitGraph {
    /// thread id → (holder cell of the lock it is blocked on, lock name).
    waiting: BTreeMap<u64, (Arc<AtomicU64>, &'static str)>,
}

impl WaitGraph {
    /// Follows `start`'s wait chain; returns the lock names on the cycle
    /// if the chain leads back to `start`.
    fn find_cycle(&self, start: u64) -> Option<Vec<&'static str>> {
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            let (holder, name) = self.waiting.get(&cur)?;
            path.push(*name);
            // Acquire pairs with the Release stores in `lock_ranked` and
            // the guard's drop; 0 means "between holders".
            let holder = holder.load(Ordering::Acquire);
            if holder == 0 {
                return None;
            }
            if holder == start {
                return Some(path);
            }
            if path.len() > self.waiting.len() {
                return None; // a loop not involving `start`
            }
            cur = holder;
        }
    }
}

fn wait_graph() -> &'static Mutex<WaitGraph> {
    static GRAPH: OnceLock<Mutex<WaitGraph>> = OnceLock::new();
    GRAPH.get_or_init(|| Mutex::new(WaitGraph::default()))
}

fn graph_lock() -> std::sync::MutexGuard<'static, WaitGraph> {
    wait_graph()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-wide count of lock-order violations since the process
/// started. The E17 gate requires zero.
pub fn order_violations() -> u64 {
    ORDER_VIOLATIONS.load(Ordering::Relaxed)
}

/// Process-wide count of would-block cycles the deadlock detector has
/// turned into panics.
pub fn deadlocks_detected() -> u64 {
    DEADLOCKS.load(Ordering::Relaxed)
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
#[derive(Debug, Default)]
pub struct VLock<T> {
    name: &'static str,
    /// Rank of `name` in the documented order, `None` for exempt names
    /// (which are never tracked).
    rank: Option<usize>,
    /// Thread id of the current holder of a ranked lock, 0 when free:
    /// stored after the mutex is acquired, cleared before it is released,
    /// so a nonzero value read by the cycle detector names a thread that
    /// genuinely holds the mutex.
    holder: Arc<AtomicU64>,
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
            holder: Arc::new(AtomicU64::new(0)),
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
    /// For the four ranked names the acquisition also checks the
    /// documented lock order and registers in the wait-for graph; see
    /// the module docs.
    ///
    /// Poisoning is ignored: the simulated kernel's own invariants are
    /// checked explicitly at quiesce, and a panicking test thread must
    /// not cascade into every other cell.
    ///
    /// # Panics
    ///
    /// Panics (deterministically, with the cycle) if blocking here would
    /// deadlock the machine.
    pub fn lock(&self) -> VLockGuard<'_, T> {
        let guard = match self.rank {
            None => self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            Some(rank) => self.lock_ranked(rank),
        };
        let now = vclock::now();
        let free_at = self.free_at.load(Ordering::Acquire);
        if free_at > now {
            vclock::advance_to(free_at);
            self.contended.fetch_add(1, Ordering::Relaxed);
            self.waited.fetch_add(free_at - now, Ordering::Relaxed);
        }
        VLockGuard { lock: self, guard }
    }

    /// The ranked path: order check, then acquire. The uncontended case
    /// is a `try_lock` and one atomic store; only a would-block takes
    /// the graph mutex, to register the wait and look for a cycle.
    fn lock_ranked(&self, rank: usize) -> MutexGuard<'_, T> {
        if HELD.with(|h| h.get()[rank..].iter().any(|&n| n > 0)) {
            ORDER_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        }
        let me = THREAD_ID.with(|&t| t);
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                {
                    let mut g = graph_lock();
                    g.waiting.insert(me, (Arc::clone(&self.holder), self.name));
                    if let Some(cycle) = g.find_cycle(me) {
                        g.waiting.remove(&me);
                        drop(g);
                        DEADLOCKS.fetch_add(1, Ordering::Relaxed);
                        panic!(
                            "deadlock detected: blocking on \"{}\" closes the wait cycle [{}]",
                            self.name,
                            cycle.join(" -> ")
                        );
                    }
                }
                let guard = self
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                graph_lock().waiting.remove(&me);
                guard
            }
        };
        self.holder.store(me, Ordering::Release);
        note_held(rank, 1);
        guard
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
            // Clear the holder before the mutex releases too: a holder
            // id present implies the mutex is genuinely held, which is
            // what makes a found cycle trustworthy.
            self.lock.holder.store(0, Ordering::Release);
            note_held(rank, -1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The violation/deadlock counters are process-global; tests that
    /// read them as before/after deltas must not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

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

    #[test]
    fn documented_order_is_violation_free() {
        let _s = serial();
        let before = order_violations();
        let mm = VLock::new("mm", ());
        let pid = VLock::new("pid", ());
        let buddy = VLock::new("buddy", ());
        let tlb = VLock::new("tlb", ());
        let _a = mm.lock();
        let _b = pid.lock();
        let _c = buddy.lock();
        let _d = tlb.lock();
        assert_eq!(
            order_violations(),
            before,
            "mm -> pid -> buddy -> tlb is the documented order"
        );
    }

    #[test]
    fn inverted_acquisition_counts_a_violation() {
        let _s = serial();
        let before = order_violations();
        let mm = VLock::new("mm", ());
        let buddy = VLock::new("buddy", ());
        let _b = buddy.lock();
        let _a = mm.lock(); // buddy held while taking mm: inversion
        assert_eq!(order_violations(), before + 1);
    }

    #[test]
    fn two_same_rank_locks_count_a_violation() {
        let _s = serial();
        let before = order_violations();
        let a = VLock::new("mm", ());
        let b = VLock::new("mm", ());
        let _ga = a.lock();
        let _gb = b.lock(); // second mm while the first is held
        assert_eq!(order_violations(), before + 1);
    }

    #[test]
    fn release_clears_held_tracking() {
        let _s = serial();
        let before = order_violations();
        let a = VLock::new("pid", ());
        let b = VLock::new("pid", ());
        drop(a.lock());
        drop(b.lock()); // sequential same-rank acquisitions are fine
        assert_eq!(order_violations(), before);
    }

    #[test]
    fn unranked_names_are_exempt() {
        let _s = serial();
        let before = order_violations();
        let x = VLock::new("t.smp.x", ());
        let y = VLock::new("t.smp.y", ());
        let _gy = y.lock();
        let _gx = x.lock();
        assert_eq!(order_violations(), before, "unranked locks have no order");
    }

    #[test]
    fn would_block_cycle_panics_deterministically_instead_of_hanging() {
        use std::sync::Barrier;
        let _s = serial();
        let a = Arc::new(VLock::new("mm", 0u32));
        let b = Arc::new(VLock::new("mm", 0u32));
        let gate = Arc::new(Barrier::new(2));
        let before = deadlocks_detected();
        let spawn = |first: Arc<VLock<u32>>, second: Arc<VLock<u32>>, gate: Arc<Barrier>| {
            std::thread::spawn(move || {
                let _g1 = first.lock();
                gate.wait(); // both threads hold their first lock
                let _g2 = second.lock(); // ... and cross over
            })
        };
        let t1 = spawn(Arc::clone(&a), Arc::clone(&b), Arc::clone(&gate));
        let t2 = spawn(Arc::clone(&b), Arc::clone(&a), Arc::clone(&gate));
        let r1 = t1.join();
        let r2 = t2.join();
        assert!(
            r1.is_err() ^ r2.is_err(),
            "exactly one thread panics out of the cycle; the other completes"
        );
        assert_eq!(deadlocks_detected(), before + 1);
        let panicked = if r1.is_err() { r1 } else { r2 };
        let msg = panicked.unwrap_err();
        let msg = msg
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("deadlock detected"),
            "panic names the event: {msg}"
        );
    }
}
